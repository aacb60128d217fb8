// Figure 1 reproduction: the Linear Equation Solver application flow graph
// and its task-properties panels, plus the end-to-end run that the paper's
// prototype demonstrated on campus resources.
//
// The artifact being reproduced is the *content* of Figure 1 — the AFG
// (LU-Decomposition and Matrix-Multiplication feeding the solve pipeline)
// and the two task-properties windows — so this bench prints the panels and
// then demonstrates the application executing with real kernels and a
// verified answer.
#include <cstdio>

#include "bench_util.hpp"
#include "vdce/vdce.hpp"

int main() {
  using namespace vdce;
  bench::print_title("Fig. 1", "Linear Equation Solver AFG + task properties");

  VdceEnvironment env(make_campus_pair());
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  common::Rng rng(1997);
  const std::size_t n = 48;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Matrix scale = tasklib::Matrix::identity(n);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-3, 3);
  env.store().put("/users/VDCE/user_k/matrix_A.dat", tasklib::Value(a),
                  124880);
  env.store().put("/users/VDCE/user_k/matrix_S.dat", tasklib::Value(scale),
                  124880);
  env.store().put("/users/VDCE/user_k/vector_b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  // The Figure-1 graph, including the Matrix_Multiplication task from the
  // second properties panel (preconditioning A' = S * A).
  editor::AppBuilder app("Linear Equation Solver");
  auto mm = app.task("Matrix_Multiplication", "matrix.multiply")
                .sequential()
                .prefer_machine_type("SUN solaris")
                .input_file("/users/VDCE/user_k/matrix_S.dat", 124880)
                .input_file("/users/VDCE/user_k/matrix_A.dat", 124880)
                .output_data(124880);
  auto lu = app.task("LU_Decomposition", "matrix.lu_decomposition")
                .parallel(2)
                .output_data(124880);
  auto fwd = app.task("Forward_Substitution", "matrix.forward_substitution")
                 .output_data(124880);
  auto bwd = app.task("Backward_Substitution", "matrix.backward_substitution")
                 .output_file("/users/VDCE/user_k/vector_X.dat",
                              static_cast<double>(n * sizeof(double)));
  common::exit_on_error(app.link(mm, lu), "bench_fig1_afg");
  common::exit_on_error(app.link(lu, fwd), "bench_fig1_afg");
  fwd.input_file("/users/VDCE/user_k/vector_b.dat",
                 static_cast<double>(n * sizeof(double)));
  common::exit_on_error(app.link(fwd, bwd), "bench_fig1_afg");
  afg::Afg graph = app.build().value();

  std::puts(editor::render_afg_summary(graph).c_str());
  std::puts("TASK PROPERTIES WINDOWS (cf. paper Figure 1):\n");
  for (const afg::TaskNode& t : graph.tasks()) {
    std::puts(editor::render_properties_panel(graph, t.id).c_str());
  }

  auto table = env.schedule(graph, session);
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(graph).c_str());
  auto report = env.execute_with_table(graph, *table, session, {});
  if (!report || !report->success) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  auto x = std::any_cast<tasklib::Vector>(report->exit_outputs.at(
      graph.find_task("Backward_Substitution")->value()));
  // S is the identity, so the pipeline solved A x = b.
  double residual = tasklib::residual_inf(a, x, b);
  std::printf("verification: ||A x - b||_inf = %.3e (%s)\n", residual,
              residual < 1e-8 ? "OK" : "FAILED");
  return residual < 1e-8 ? 0 : 1;
}
