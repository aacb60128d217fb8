// E12 — multi-tenant concurrency plane: submission throughput and
// submit->complete latency vs. tenant count (docs/TENANCY.md).
//
// For each tenant count the bench brings up a generated grid, creates one
// account per tenant, replays the deterministic arrival sequence from
// scale::make_tenant_arrivals (staggered submissions with think-time gaps)
// through the asynchronous API — run_for() to each arrival instant, then
// submit_application() — and drains the fleet.  Reported per configuration:
//
//   * completed / deferred counts and the admission peaks;
//   * p50 / p99 submit->complete latency (report.completed - report.enqueued,
//     which includes admission wait, scheduling, setup, and execution);
//   * throughput in applications per simulated minute over the span from
//     the first submission to the drain instant;
//   * a co-scheduling audit: per-host busy intervals from every report,
//     checked pairwise across applications — overlap means two apps
//     double-booked a machine, which the reservation table must prevent.
//
// A last configuration is a one-site burst: every application arrives at
// t=0 from site 0 with admission unbounded, so most of them lose their
// first scheduling round to contention and retry.  It reports scheduling
// rounds per submission (tenancy_stats().admitted / submitted).
//
// Emits a JSON object on stdout and writes it to BENCH_TENANCY.json for CI
// artifact upload.
//
// Flags:
//   --smoke   fewer/smaller configurations (CI per-commit signal)
//   --check   exit non-zero unless every submission completed successfully,
//             no host was ever double-booked across applications, the
//             reservation table counted zero acquire conflicts, and the
//             burst took at most 2 scheduling rounds per submission
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;

std::string json_num(double v) { return vdce::bench::json_num(v); }

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One application's busy claim on one host, for the double-booking audit.
struct HostClaim {
  std::uint32_t host = 0;
  std::uint64_t app = 0;
  double start = 0.0;
  double end = 0.0;
};

/// True when any two claims on the same host from different applications
/// overlap in time (open interval — shared endpoints are fine).
bool find_double_booking(std::vector<HostClaim>& claims, std::string* who) {
  std::sort(claims.begin(), claims.end(),
            [](const HostClaim& a, const HostClaim& b) {
              if (a.host != b.host) return a.host < b.host;
              return a.start < b.start;
            });
  for (std::size_t i = 1; i < claims.size(); ++i) {
    const HostClaim& prev = claims[i - 1];
    const HostClaim& cur = claims[i];
    if (cur.host == prev.host && cur.app != prev.app &&
        cur.start < prev.end) {
      *who = "host " + std::to_string(cur.host) + ": apps " +
             std::to_string(prev.app) + " and " + std::to_string(cur.app) +
             " overlap at " + json_num(cur.start) + "s";
      return true;
    }
  }
  return false;
}

/// Scheduling rounds per submission above which the burst fails --check.
constexpr double kMaxBurstRounds = 2.0;

struct Measurement {
  std::string config;  ///< tenant count, or "burst"
  std::size_t tenants = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t deferred = 0;
  double rounds_per_submission = 0.0;  ///< admitted / submitted
  std::size_t peak_in_flight = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double contention_max = 0.0;  ///< largest admission wait observed
  double throughput = 0.0;      ///< apps per simulated minute
  double span = 0.0;            ///< first submission -> drained
  double wall_ms = 0.0;
  bool all_success = false;
  bool no_double_booking = false;
  std::uint64_t reservation_conflicts = 0;
};

ScaleSpec grid_spec(bool smoke) {
  ScaleSpec spec;
  spec.grid.sites = smoke ? 2 : 3;
  spec.grid.hosts_per_site = smoke ? 6 : 10;
  spec.grid.seed = 41;
  spec.options.runtime.exec_noise_cv = 0.0;
  return spec;
}

/// Drain `env` and fill the rest of `m` from the reports and counters.
void finish(VdceEnvironment& env, const std::vector<AppHandle>& handles,
            double first_submit, double t0, Measurement& m) {
  auto drained = env.drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n",
                 drained.error().to_string().c_str());
    return;
  }

  std::vector<double> latencies;
  std::vector<HostClaim> claims;
  bool all_success = !handles.empty();
  for (AppHandle h : handles) {
    auto report = env.report(h);
    if (!report || !report->success) {
      all_success = false;
      continue;
    }
    ++m.completed;
    latencies.push_back(report->completed - report->enqueued);
    m.contention_max =
        std::max(m.contention_max, report->admitted - report->enqueued);
    for (const runtime::TaskOutcome& o : report->outcomes) {
      claims.push_back(HostClaim{o.host.value(), h.id, o.started, o.finished});
    }
  }
  m.all_success = all_success;

  std::string violation;
  m.no_double_booking = !find_double_booking(claims, &violation);
  if (!m.no_double_booking) {
    std::fprintf(stderr, "DOUBLE BOOKING: %s\n", violation.c_str());
  }
  m.reservation_conflicts = env.core().reservations().conflicts();

  const tenancy::TenancyStats& stats = env.tenancy_stats();
  m.deferred = stats.deferred;
  m.peak_in_flight = stats.peak_in_flight;
  if (stats.submitted != 0) {
    m.rounds_per_submission = static_cast<double>(stats.admitted) /
                              static_cast<double>(stats.submitted);
  }

  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const double pos = q * static_cast<double>(latencies.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return latencies[lo] * (1.0 - frac) + latencies[hi] * frac;
  };
  m.p50 = quantile(0.50);
  m.p99 = quantile(0.99);

  m.span = first_submit >= 0.0 ? env.now() - first_submit : 0.0;
  if (m.span > 0.0) {
    m.throughput = static_cast<double>(m.completed) * 60.0 / m.span;
  }
  m.wall_ms = now_ms() - t0;
}

Measurement measure(std::size_t tenants, std::size_t apps_per_tenant,
                    bool smoke) {
  Measurement m;
  m.config = std::to_string(tenants);
  m.tenants = tenants;
  const double t0 = now_ms();

  auto env = VdceEnvironment::make_scale_environment(grid_spec(smoke));
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return m;
  }

  scale::TenantSpec ts;
  ts.tenants = tenants;
  ts.apps_per_tenant = apps_per_tenant;
  ts.seed = 7;
  const std::vector<scale::TenantArrival> arrivals =
      scale::make_tenant_arrivals(ts);

  // One account and session per tenant (the arrival's priority is the
  // account priority, exercised by QueuePolicy::kPriority elsewhere).
  std::vector<Session> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string user = "tenant" + std::to_string(t);
    int priority = 1;
    for (const scale::TenantArrival& a : arrivals) {
      if (a.tenant == t) { priority = a.priority; break; }
    }
    auto added = (*env)->try_add_user(user, "pw", priority);
    if (!added.ok()) {
      std::fprintf(stderr, "add_user failed: %s\n",
                   added.error().to_string().c_str());
      return m;
    }
    auto session = (*env)->login(common::SiteId(0), user, "pw");
    if (!session) {
      std::fprintf(stderr, "login failed: %s\n",
                   session.error().to_string().c_str());
      return m;
    }
    sessions.push_back(*session);
  }

  // Replay the arrival schedule against the asynchronous API.
  std::vector<AppHandle> handles;
  double first_submit = -1.0;
  for (const scale::TenantArrival& a : arrivals) {
    if (a.at > (*env)->now()) (*env)->run_for(a.at - (*env)->now());
    afg::Afg graph = scale::make_workload(a.workload, a.app_name);
    RunOptions run;
    run.real_kernels = false;
    auto handle =
        (*env)->submit_application(graph, sessions[a.tenant], run);
    ++m.submitted;
    if (!handle) {
      std::fprintf(stderr, "submit %s rejected: %s\n", a.app_name.c_str(),
                   handle.error().to_string().c_str());
      continue;
    }
    if (first_submit < 0.0) first_submit = (*env)->now();
    handles.push_back(*handle);
  }
  finish(**env, handles, first_submit, t0, m);
  return m;
}

/// The one-site burst: `apps` layered applications submitted at t=0 from
/// site 0 by one user, admission unbounded.
Measurement measure_burst(std::size_t apps, bool smoke) {
  Measurement m;
  m.config = "burst";
  m.tenants = 1;
  const double t0 = now_ms();

  ScaleSpec spec = grid_spec(smoke);
  spec.options.tenancy.max_in_flight = 0;
  spec.options.tenancy.max_queue_depth = 0;
  auto env = VdceEnvironment::make_scale_environment(spec);
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return m;
  }
  auto added = (*env)->try_add_user("burst", "pw");
  auto session = (*env)->login(common::SiteId(0), "burst", "pw");
  if (!added.ok() || !session) {
    std::fprintf(stderr, "burst user setup failed\n");
    return m;
  }

  std::vector<AppHandle> handles;
  for (std::size_t i = 0; i < apps; ++i) {
    scale::WorkloadSpec w;
    w.tasks = 12;
    w.width = 4;
    w.max_mflop = 500.0;
    w.seed = 900 + i;
    RunOptions run;
    run.real_kernels = false;
    auto handle = (*env)->submit_application(
        scale::make_workload(w, "burst" + std::to_string(i)), *session, run);
    ++m.submitted;
    if (!handle) {
      std::fprintf(stderr, "burst submit %zu rejected: %s\n", i,
                   handle.error().to_string().c_str());
      continue;
    }
    handles.push_back(*handle);
  }
  finish(**env, handles, 0.0, t0, m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  bench::print_title("E12", "multi-tenant throughput and latency vs. tenants");
  bench::print_note(
      "Staggered arrival sequences replayed through submit/drain; latency is\n"
      "submit->complete (admission wait included).  The audit column proves\n"
      "no host was ever shared by two applications at the same instant.");

  const std::vector<std::size_t> tenant_counts =
      smoke ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t apps_per_tenant = smoke ? 2 : 3;

  bench::Table table({"tenants", "apps", "completed", "deferred",
                      "rounds/app", "peak", "p50_s", "p99_s", "apps/min",
                      "max_wait_s", "wall_ms", "audit"});
  std::string json = "{\"bench\":\"tenancy\",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"apps_per_tenant\":" + std::to_string(apps_per_tenant);
  json += ",\"configs\":[";

  bool all_success = true;
  bool no_double_booking = true;
  std::uint64_t conflicts = 0;
  bool first = true;
  std::vector<Measurement> runs;
  for (std::size_t tenants : tenant_counts) {
    runs.push_back(measure(tenants, apps_per_tenant, smoke));
  }
  runs.push_back(measure_burst(smoke ? 16 : 32, smoke));
  const double burst_rounds = runs.back().rounds_per_submission;
  for (const Measurement& m : runs) {
    all_success = all_success && m.all_success;
    no_double_booking = no_double_booking && m.no_double_booking;
    conflicts += m.reservation_conflicts;
    table.add_row({m.config, std::to_string(m.submitted),
                   std::to_string(m.completed), std::to_string(m.deferred),
                   bench::Table::num(m.rounds_per_submission, 2),
                   std::to_string(m.peak_in_flight), bench::Table::num(m.p50),
                   bench::Table::num(m.p99),
                   bench::Table::num(m.throughput, 2),
                   bench::Table::num(m.contention_max),
                   bench::Table::num(m.wall_ms, 1),
                   m.no_double_booking ? "exclusive" : "DOUBLE-BOOKED"});
    if (!first) json += ",";
    first = false;
    json += "{\"config\":\"" + m.config + "\"" +
            ",\"tenants\":" + std::to_string(m.tenants) +
            ",\"submitted\":" + std::to_string(m.submitted) +
            ",\"completed\":" + std::to_string(m.completed) +
            ",\"deferred\":" + std::to_string(m.deferred) +
            ",\"rounds_per_submission\":" +
            json_num(m.rounds_per_submission) +
            ",\"peak_in_flight\":" + std::to_string(m.peak_in_flight) +
            ",\"p50_s\":" + json_num(m.p50) +
            ",\"p99_s\":" + json_num(m.p99) +
            ",\"apps_per_min\":" + json_num(m.throughput) +
            ",\"max_admission_wait_s\":" + json_num(m.contention_max) +
            ",\"span_s\":" + json_num(m.span) +
            ",\"wall_ms\":" + json_num(m.wall_ms) +
            ",\"all_success\":" + (m.all_success ? "true" : "false") +
            ",\"no_double_booking\":" +
            (m.no_double_booking ? "true" : "false") +
            ",\"reservation_conflicts\":" +
            std::to_string(m.reservation_conflicts) + "}";
  }
  json += "],\"all_success\":";
  json += all_success ? "true" : "false";
  json += ",\"no_double_booking\":";
  json += no_double_booking ? "true" : "false";
  json += ",\"reservation_conflicts\":" + std::to_string(conflicts);
  json += "}";

  table.print();
  std::printf("\n%s\n", json.c_str());
  if (FILE* f = std::fopen("BENCH_TENANCY.json", "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }

  if (check) {
    if (!all_success) {
      std::fprintf(stderr,
                   "CHECK FAILED: a submission was rejected or failed\n");
      return 1;
    }
    if (!no_double_booking) {
      std::fprintf(stderr,
                   "CHECK FAILED: a host was double-booked across "
                   "applications\n");
      return 1;
    }
    if (conflicts != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: reservation table counted %llu acquire "
                   "conflicts\n",
                   static_cast<unsigned long long>(conflicts));
      return 1;
    }
    if (burst_rounds > kMaxBurstRounds) {
      std::fprintf(stderr,
                   "CHECK FAILED: tenancy.admitted/submitted = %s scheduling "
                   "rounds per submission in the burst (max %s)\n",
                   json_num(burst_rounds).c_str(),
                   json_num(kMaxBurstRounds).c_str());
      return 1;
    }
    std::printf(
        "check: ok (every submission completed, hosts exclusive, 0 "
        "reservation conflicts, burst rounds/submission <= 2)\n");
  }
  return 0;
}
