// Figure 1 end-to-end: the Linear Equation Solver application.
//
// Reproduces the paper's flagship example with *real* matrix kernels: the
// user stages matrix_A.dat and vector_b.dat in their VDCE file space, draws
// the AFG (LU-Decomposition feeding forward/backward substitution, with the
// task-properties panels shown exactly as in Figure 1), and the runtime
// executes it across the simulated testbed.  At the end the program checks
// A·x = b against the value that actually flowed through the Data Managers.
#include <cstdio>

#include "vdce/vdce.hpp"

int main() {
  using namespace vdce;

  VdceEnvironment env(make_campus_pair());
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  // ---- the user's input files (I/O service object store) -----------------
  common::Rng rng(1997);
  const std::size_t n = 64;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-3, 3);
  env.store().put("/users/VDCE/user_k/matrix_A.dat", tasklib::Value(a),
                  a.size_bytes());
  env.store().put("/users/VDCE/user_k/vector_b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  // ---- Figure 1: the application flow graph -----------------------------
  editor::AppBuilder app("Linear Equation Solver");
  auto lu = app.task("LU_Decomposition", "matrix.lu_decomposition")
                .parallel(2)
                .input_file("/users/VDCE/user_k/matrix_A.dat", a.size_bytes())
                .output_data(a.size_bytes())
                .request_service("visualization");
  auto fwd = app.task("Forward_Substitution", "matrix.forward_substitution")
                 .prefer_machine_type("SUN solaris")
                 .output_data(a.size_bytes());
  auto bwd = app.task("Backward_Substitution", "matrix.backward_substitution")
                 .output_file("/users/VDCE/user_k/vector_X.dat",
                              static_cast<double>(n * sizeof(double)));
  common::exit_on_error(app.link(lu, fwd), "linear_equation_solver");
  fwd.input_file("/users/VDCE/user_k/vector_b.dat",
                 static_cast<double>(n * sizeof(double)));
  common::exit_on_error(app.link(fwd, bwd), "linear_equation_solver");
  afg::Afg graph = app.build().value();

  // The editor's views: flow graph + per-task properties panels.
  std::puts(editor::render_afg_summary(graph).c_str());
  for (const afg::TaskNode& t : graph.tasks()) {
    std::puts(editor::render_properties_panel(graph, t.id).c_str());
  }

  // The menu the task was picked from.
  std::puts(editor::render_library_menu(env.registry(), "matrix").c_str());

  // The on-disk form of the application (AFG DSL round-trip).
  std::puts("--- saved application (.afg) ---");
  std::puts(editor::write_afg(graph).c_str());

  // ---- schedule + execute -------------------------------------------------
  auto table = env.schedule(graph, session);
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(graph).c_str());

  auto report = env.execute_with_table(graph, *table, session, {});
  if (!report || !report->success) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report ? report->failure_reason.c_str()
                        : report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  // ---- verify the answer that flowed through the Data Managers ------------
  auto bwd_id = graph.find_task("Backward_Substitution").value();
  auto x = std::any_cast<tasklib::Vector>(
      report->exit_outputs.at(bwd_id.value()));
  double residual = tasklib::residual_inf(a, x, b);
  std::printf("verification: ||A x - b||_inf = %.3e (%s)\n", residual,
              residual < 1e-8 ? "OK" : "FAILED");
  return residual < 1e-8 ? 0 : 1;
}
