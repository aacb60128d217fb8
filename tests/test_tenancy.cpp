// vdce::tenancy — the multi-tenant concurrency plane (docs/TENANCY.md):
// admission-control policy units, typed submission rejections, co-scheduling
// properties over replayed arrival sequences (no host double-booked, every
// admitted app completes with a tiled phase breakdown, contention never
// beats a solo run), contended-burst retry passes (few scheduling rounds per
// submission, every strategy drains), the submit/drain vs. run_application
// differential, and the staggered-arrival determinism regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "editor/builder.hpp"
#include "scale/generate.hpp"
#include "sched/strategy.hpp"
#include "tenancy/tenancy.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

// --- AdmissionController policy units ---------------------------------------

TEST(AdmissionController, FifoAdmitsInSubmissionOrder) {
  tenancy::TenancyOptions opt;
  opt.max_in_flight = 2;
  tenancy::AdmissionController ac(opt);
  ASSERT_TRUE(ac.enqueue(1, "a", 5).ok());
  ASSERT_TRUE(ac.enqueue(2, "b", 9).ok());  // higher priority, later arrival
  ASSERT_TRUE(ac.enqueue(3, "a", 1).ok());
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(ac.admit_next(), std::nullopt);  // max_in_flight reached
  ac.complete(1);
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(3));
}

TEST(AdmissionController, PriorityAdmitsHigherFirstFifoTieBreak) {
  tenancy::TenancyOptions opt;
  opt.policy = tenancy::QueuePolicy::kPriority;
  tenancy::AdmissionController ac(opt);
  ASSERT_TRUE(ac.enqueue(1, "a", 1).ok());
  ASSERT_TRUE(ac.enqueue(2, "b", 3).ok());
  ASSERT_TRUE(ac.enqueue(3, "c", 3).ok());  // ties with 2; submitted later
  ASSERT_TRUE(ac.enqueue(4, "d", 2).ok());
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(4));
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
}

TEST(AdmissionController, DeferKeepsOriginalPlaceInLine) {
  tenancy::TenancyOptions opt;
  opt.max_in_flight = 1;
  tenancy::AdmissionController ac(opt);
  ASSERT_TRUE(ac.enqueue(1, "a", 1).ok());
  ASSERT_TRUE(ac.enqueue(2, "b", 1).ok());
  ASSERT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
  // 1 loses its schedule to contention and re-queues: its original sequence
  // number means it is still ahead of 2.
  ac.defer(1);
  EXPECT_EQ(ac.in_flight(), 0u);
  EXPECT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(ac.stats().deferred, 1u);
}

TEST(AdmissionController, IneligibleDeferredEntryKeepsItsPlaceInLine) {
  tenancy::TenancyOptions opt;
  opt.max_in_flight = 0;
  tenancy::AdmissionController ac(opt);
  ASSERT_TRUE(ac.enqueue(1, "a", 1).ok());
  ASSERT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
  ac.defer(1);
  ASSERT_TRUE(ac.enqueue(2, "b", 1).ok());
  ASSERT_TRUE(ac.enqueue(3, "c", 1).ok());

  // The filter is asked about deferred entries only; fresh ones always
  // qualify.
  bool eligible = false;
  const tenancy::AdmissionController::RetryFilter may_retry =
      [&](std::uint64_t handle) {
        EXPECT_EQ(handle, 1u);
        return eligible;
      };
  EXPECT_EQ(ac.admit_next(may_retry), std::optional<std::uint64_t>(2));
  EXPECT_EQ(ac.queue_depth(), 2u);
  // Once eligible, 1 is still ahead of the later entry 3.
  eligible = true;
  EXPECT_EQ(ac.admit_next(may_retry), std::optional<std::uint64_t>(1));
  EXPECT_EQ(ac.admit_next(may_retry), std::optional<std::uint64_t>(3));
  // Skipping was not a deferral.
  EXPECT_EQ(ac.stats().deferred, 1u);
  EXPECT_EQ(ac.stats().admitted, 4u);
}

TEST(AdmissionController, QuotaAndQueueBoundRejectTyped) {
  tenancy::TenancyOptions opt;
  opt.per_user_quota = 1;
  opt.max_queue_depth = 2;
  tenancy::AdmissionController ac(opt);
  ASSERT_TRUE(ac.enqueue(1, "a", 1).ok());
  common::Status quota = ac.enqueue(2, "a", 1);
  ASSERT_FALSE(quota.ok());
  EXPECT_EQ(quota.error().code, common::ErrorCode::kQuotaExceeded);
  EXPECT_NE(quota.error().message.find("a"), std::string::npos);

  ASSERT_TRUE(ac.enqueue(3, "b", 1).ok());
  common::Status depth = ac.enqueue(4, "c", 1);
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().code, common::ErrorCode::kQuotaExceeded);
  EXPECT_EQ(ac.stats().rejected, 2u);

  // Completion frees the user's quota share again.
  ASSERT_EQ(ac.admit_next(), std::optional<std::uint64_t>(1));
  ac.complete(1);
  EXPECT_TRUE(ac.enqueue(5, "a", 1).ok());
}

// --- environment plumbing ---------------------------------------------------

afg::Afg tiny_app(const std::string& name, double mflop = 300.0) {
  editor::AppBuilder app(name);
  auto a = app.task("a", "synthetic.w" + std::to_string(
                             static_cast<long long>(mflop)))
               .output_data(1e4);
  auto b = app.task("b", "synthetic.w200");
  EXPECT_TRUE(app.link(a, b).has_value());
  return app.build().value();
}

EnvironmentOptions quiet_options() {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  return options;
}

TEST(TenancySubmission, RejectsBeyondPerUserQuota) {
  EnvironmentOptions options = quiet_options();
  options.tenancy.max_in_flight = 1;
  options.tenancy.per_user_quota = 1;
  VdceEnvironment env(make_campus_pair(5), options);
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();

  auto first = env.submit_application(tiny_app("first"), session);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  auto second = env.submit_application(tiny_app("second"), session);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, common::ErrorCode::kQuotaExceeded);
  EXPECT_NE(second.error().message.find("u"), std::string::npos)
      << second.error().message;

  // The rejection is transient: once the fleet drains the quota frees up.
  ASSERT_TRUE(env.drain().ok());
  auto third = env.submit_application(tiny_app("third"), session);
  EXPECT_TRUE(third.has_value()) << third.error().to_string();
  ASSERT_TRUE(env.drain().ok());
  EXPECT_EQ(env.tenancy_stats().rejected, 1u);
}

TEST(TenancySubmission, RejectsWhenQueueFull) {
  EnvironmentOptions options = quiet_options();
  options.tenancy.max_in_flight = 1;
  options.tenancy.max_queue_depth = 1;
  VdceEnvironment env(make_campus_pair(5), options);
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();

  ASSERT_TRUE(env.submit_application(tiny_app("a"), session).has_value());
  ASSERT_TRUE(env.submit_application(tiny_app("b"), session).has_value());
  auto overflow = env.submit_application(tiny_app("c"), session);
  ASSERT_FALSE(overflow.has_value());
  EXPECT_EQ(overflow.error().code, common::ErrorCode::kQuotaExceeded);
  EXPECT_NE(overflow.error().message.find("queue"), std::string::npos)
      << overflow.error().message;
  ASSERT_TRUE(env.drain().ok());
}

TEST(TenancySubmission, RejectsUnknownUser) {
  VdceEnvironment env(make_campus_pair(5), quiet_options());
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("real", "p").ok());
  Session session = env.login(common::SiteId(0), "real", "p").value();
  session.account.user_name = "ghost";  // forged / stale session
  auto handle = env.submit_application(tiny_app("a"), session);
  ASSERT_FALSE(handle.has_value());
  EXPECT_EQ(handle.error().code, common::ErrorCode::kNotFound);
  EXPECT_NE(handle.error().message.find("ghost"), std::string::npos)
      << handle.error().message;
}

TEST(TenancySubmission, HandleLifecycleAndNonBlockingReport) {
  VdceEnvironment env(make_campus_pair(5), quiet_options());
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();

  auto handle = env.submit_application(tiny_app("a"), session);
  ASSERT_TRUE(handle.has_value());
  EXPECT_TRUE(handle->valid());
  EXPECT_EQ(env.in_flight_submissions(), 1u);

  // Not terminal yet: report() refuses, app_state() reports progress.
  auto early = env.report(*handle);
  ASSERT_FALSE(early.has_value());
  EXPECT_EQ(early.error().code, common::ErrorCode::kInvalidArgument);
  auto state = env.app_state(*handle);
  ASSERT_TRUE(state.has_value());
  EXPECT_NE(*state, AppState::kFinished);

  auto report = env.wait(*handle);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_TRUE(report->success);
  EXPECT_EQ(env.in_flight_submissions(), 0u);
  EXPECT_EQ(env.app_state(*handle).value(), AppState::kFinished);

  // wait() is idempotent; report() now answers without advancing time.
  const common::SimTime now = env.now();
  auto again = env.wait(*handle);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->completed, report->completed);
  EXPECT_EQ(env.now(), now);
  EXPECT_TRUE(env.report(*handle).has_value());

  // Unknown handles are typed kNotFound everywhere.
  AppHandle bogus{999};
  EXPECT_EQ(env.wait(bogus).error().code, common::ErrorCode::kNotFound);
  EXPECT_EQ(env.report(bogus).error().code, common::ErrorCode::kNotFound);
  EXPECT_EQ(env.app_state(bogus).error().code, common::ErrorCode::kNotFound);
}

// --- replayed arrival sequences --------------------------------------------

struct FleetResult {
  std::vector<scale::TenantArrival> arrivals;
  std::vector<runtime::ExecutionReport> reports;  ///< arrival order
  std::uint64_t reservation_conflicts = 0;
};

/// Bring up a small generated grid, replay `spec`'s arrival sequence through
/// the asynchronous API, and drain.  Expects every submission to be
/// accepted and to succeed.
FleetResult replay_fleet(const scale::TenantSpec& spec,
                         std::uint64_t grid_seed = 41) {
  FleetResult result;
  ScaleSpec scale_spec;
  scale_spec.grid.sites = 2;
  scale_spec.grid.hosts_per_site = 6;
  scale_spec.grid.seed = grid_seed;
  scale_spec.options.runtime.exec_noise_cv = 0.0;
  auto env = VdceEnvironment::make_scale_environment(scale_spec);
  EXPECT_TRUE(env.has_value()) << env.error().to_string();
  if (!env) return result;

  result.arrivals = scale::make_tenant_arrivals(spec);
  std::vector<Session> sessions;
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    int priority = 1;
    for (const scale::TenantArrival& a : result.arrivals) {
      if (a.tenant == t) { priority = a.priority; break; }
    }
    const std::string user = "tenant" + std::to_string(t);
    EXPECT_TRUE((*env)->try_add_user(user, "pw", priority).ok());
    sessions.push_back((*env)->login(common::SiteId(0), user, "pw").value());
  }

  std::vector<AppHandle> handles;
  for (const scale::TenantArrival& a : result.arrivals) {
    if (a.at > (*env)->now()) (*env)->run_for(a.at - (*env)->now());
    afg::Afg graph = scale::make_workload(a.workload, a.app_name);
    RunOptions run;
    run.real_kernels = false;
    auto handle = (*env)->submit_application(graph, sessions[a.tenant], run);
    EXPECT_TRUE(handle.has_value())
        << a.app_name << ": " << handle.error().to_string();
    if (handle) handles.push_back(*handle);
  }
  EXPECT_TRUE((*env)->drain().ok());

  for (AppHandle h : handles) {
    auto report = (*env)->report(h);
    EXPECT_TRUE(report.has_value()) << report.error().to_string();
    if (report) {
      EXPECT_TRUE(report->success) << report->failure_reason;
      result.reports.push_back(std::move(*report));
    }
  }
  result.reservation_conflicts = (*env)->core().reservations().conflicts();
  return result;
}

/// Every task interval, keyed by host; intervals from different apps on the
/// same machine must not overlap (host-exclusive co-scheduling).
void expect_no_double_booking(
    const std::vector<runtime::ExecutionReport>& reports,
    const std::string& label) {
  struct Claim {
    std::uint32_t host;
    std::uint32_t app;
    double start, end;
  };
  std::vector<Claim> claims;
  for (const runtime::ExecutionReport& r : reports) {
    for (const runtime::TaskOutcome& o : r.outcomes) {
      claims.push_back(
          Claim{o.host.value(), r.app.value(), o.started, o.finished});
    }
  }
  std::sort(claims.begin(), claims.end(), [](const Claim& a, const Claim& b) {
    if (a.host != b.host) return a.host < b.host;
    return a.start < b.start;
  });
  for (std::size_t i = 1; i < claims.size(); ++i) {
    const Claim& p = claims[i - 1];
    const Claim& c = claims[i];
    if (c.host != p.host || c.app == p.app) continue;
    EXPECT_GE(c.start, p.end) << label << ": host " << c.host
                              << " shared by apps " << p.app << " and "
                              << c.app;
  }
}

TEST(TenancyProperties, NoHostDoubleBookedAcrossConcurrentApps) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    scale::TenantSpec spec;
    spec.tenants = 4;
    spec.apps_per_tenant = 2;
    spec.seed = seed;
    FleetResult fleet = replay_fleet(spec);
    ASSERT_EQ(fleet.reports.size(), spec.tenants * spec.apps_per_tenant);
    EXPECT_EQ(fleet.reservation_conflicts, 0u) << "seed " << seed;
    expect_no_double_booking(fleet.reports, "seed " + std::to_string(seed));
  }
}

// --- contended burst: retry passes ------------------------------------------

struct BurstResult {
  std::size_t submitted = 0;
  std::size_t terminal = 0;  ///< submissions in AppState::kFinished
  std::vector<runtime::ExecutionReport> reports;  ///< successful runs
  std::uint64_t sched_requests = 0;
  std::uint64_t deferred = 0;
  std::uint64_t reservation_conflicts = 0;
  std::string trace;
};

constexpr std::size_t kBurstApps = 16;
constexpr double kTicketStart = 20.0;

/// kBurstApps layered apps submitted at t=0 from site 0 with admission
/// unbounded, so most of them find every candidate machine held and defer.
/// `ticket` gives the first submission a reservation whose window opens
/// later.
BurstResult run_burst(const std::string& strategy, bool ticket = false) {
  BurstResult result;
  ScaleSpec scale_spec;
  scale_spec.grid.sites = 2;
  scale_spec.grid.hosts_per_site = 6;
  scale_spec.grid.seed = 41;
  scale_spec.options.runtime.exec_noise_cv = 0.0;
  scale_spec.options.tenancy.max_in_flight = 0;
  scale_spec.options.tenancy.max_queue_depth = 0;
  scale_spec.options.metrics.enabled = true;
  scale_spec.options.trace.enabled = true;
  auto env = VdceEnvironment::make_scale_environment(scale_spec);
  EXPECT_TRUE(env.has_value()) << env.error().to_string();
  if (!env) return result;
  EXPECT_TRUE((*env)->try_add_user("burst", "pw").ok());
  const Session session =
      (*env)->login(common::SiteId(0), "burst", "pw").value();

  std::vector<AppHandle> handles;
  for (std::size_t i = 0; i < kBurstApps; ++i) {
    scale::WorkloadSpec w;
    w.tasks = 12;
    w.width = 4;
    w.max_mflop = 500.0;
    w.seed = 900 + i;
    RunOptions run;
    run.real_kernels = false;
    run.sched.strategy = strategy;
    if (ticket && i == 0) {
      ReservationRequest request;
      request.hosts = {(*env)->topology().site(common::SiteId(0)).hosts[1]};
      request.start = kTicketStart;
      request.end = 4000.0;
      auto booked = (*env)->reserve(session, request);
      EXPECT_TRUE(booked.has_value()) << booked.error().to_string();
      if (booked) run.reservation = *booked;
    }
    auto handle = (*env)->submit_application(
        scale::make_workload(w, "burst" + std::to_string(i)), session, run);
    EXPECT_TRUE(handle.has_value()) << handle.error().to_string();
    if (handle) handles.push_back(*handle);
  }
  result.submitted = handles.size();
  EXPECT_TRUE((*env)->drain().ok()) << strategy;
  for (AppHandle h : handles) {
    if ((*env)->app_state(h).value() == AppState::kFinished) ++result.terminal;
    auto report = (*env)->report(h);
    if (report && report->success) result.reports.push_back(std::move(*report));
  }
  result.sched_requests =
      (*env)->metrics().counter("sched.requests").value();
  result.deferred = (*env)->tenancy_stats().deferred;
  result.reservation_conflicts = (*env)->core().reservations().conflicts();
  result.trace = (*env)->trace().to_jsonl();
  return result;
}

// A deferred submission retries at most once per completion, one guarded
// round at a time, so a burst costs few scheduling rounds per submission —
// and still completes every app with exclusive hosts, deterministically.
TEST(TenancyProperties, ContendedBurstRetriesOneGuardedRoundAtATime) {
  const BurstResult first = run_burst("");
  ASSERT_EQ(first.submitted, kBurstApps);
  EXPECT_EQ(first.terminal, kBurstApps);
  EXPECT_EQ(first.reports.size(), kBurstApps);
  // The scenario is only meaningful if the burst actually contended.
  EXPECT_GT(first.deferred, 0u);
  EXPECT_LE(first.sched_requests, 2 * kBurstApps);
  EXPECT_EQ(first.reservation_conflicts, 0u);
  expect_no_double_booking(first.reports, "burst");

  const BurstResult second = run_burst("");
  EXPECT_EQ(first.trace, second.trace);
}

// The retry-in-flight marker is set only when a retry round actually starts,
// so no strategy and no parked reservation can stall the retry pass: every
// submission of the burst ends terminal.
TEST(TenancyProperties, ContendedBurstDrainsUnderEveryStrategy) {
  for (const sched::StrategyInfo& info : sched::strategies()) {
    const BurstResult burst = run_burst(info.name);
    EXPECT_EQ(burst.submitted, kBurstApps) << info.name;
    EXPECT_EQ(burst.terminal, burst.submitted) << info.name;
  }
  const BurstResult reserved = run_burst("", /*ticket=*/true);
  EXPECT_EQ(reserved.submitted, kBurstApps);
  EXPECT_EQ(reserved.terminal, reserved.submitted);
  ASSERT_EQ(reserved.reports.size(), kBurstApps);
  EXPECT_GE(reserved.reports.front().released, kTicketStart);  // it parked
}

TEST(TenancyProperties, EveryAdmittedAppCompletesWithTiledBreakdown) {
  scale::TenantSpec spec;
  spec.tenants = 4;
  spec.apps_per_tenant = 2;
  spec.seed = 9;
  FleetResult fleet = replay_fleet(spec);
  ASSERT_EQ(fleet.reports.size(), spec.tenants * spec.apps_per_tenant);
  for (const runtime::ExecutionReport& r : fleet.reports) {
    ASSERT_TRUE(r.success);
    const runtime::ExecutionReport::PhaseBreakdown b = r.breakdown();
    EXPECT_GE(b.contention, 0.0);
    EXPECT_GT(b.scheduling, 0.0);
    EXPECT_GT(b.setup, 0.0);
    EXPECT_GT(b.execution, 0.0);
    // The four phases tile [enqueued, completed] exactly: contention ends
    // where scheduling starts (admitted), scheduling ends where setup
    // starts (submitted), setup ends at the startup signal.
    EXPECT_DOUBLE_EQ(r.enqueued + b.contention, r.admitted);
    EXPECT_DOUBLE_EQ(r.admitted + b.scheduling, r.submitted);
    EXPECT_DOUBLE_EQ(r.submitted + b.setup, r.exec_started);
    EXPECT_DOUBLE_EQ(r.exec_started + b.execution, r.completed);
    EXPECT_DOUBLE_EQ(b.total(), r.completed - r.enqueued);
  }
}

// Contention-aware re-ranking can only move a task to a worse-or-equal
// machine: the contended choice is the best of a *subset* of the ranked
// hosts.  Phrased per machine, with one single-task app per tenant (for a
// multi-task DAG, forced spreading can legitimately beat the greedy
// per-task solo placement in realized makespan, so the per-app claim is
// only guaranteed at task granularity).
TEST(TenancyProperties, ContentionNeverBeatsSoloMakespan) {
  constexpr std::size_t kTenants = 6;
  auto make_env = [] {
    ScaleSpec scale_spec;
    scale_spec.grid.sites = 2;
    scale_spec.grid.hosts_per_site = 6;
    scale_spec.grid.seed = 41;
    scale_spec.options.runtime.exec_noise_cv = 0.0;
    scale_spec.options.metrics.enabled = true;
    auto env = VdceEnvironment::make_scale_environment(scale_spec);
    EXPECT_TRUE(env.has_value());
    return std::move(*env);
  };
  auto one_task_app = [](std::size_t u) {
    // Distinct work sizes, so no (task, host) measured-history entry of one
    // tenant can influence another tenant's prediction.
    editor::AppBuilder app("solo" + std::to_string(u));
    app.task("only", "synthetic.w" + std::to_string(3000 + 17 * u));
    return app.build().value();
  };
  const double kArrival = 2.0;

  // The fleet: every tenant submits at the same instant, so all but the
  // first admitted app schedule against a reservation table that already
  // holds the better machines.
  auto fleet_env = make_env();
  std::vector<AppHandle> handles;
  fleet_env->run_for(kArrival);
  for (std::size_t u = 0; u < kTenants; ++u) {
    const std::string user = "tenant" + std::to_string(u);
    ASSERT_TRUE(fleet_env->try_add_user(user, "pw").ok());
    Session session =
        fleet_env->login(common::SiteId(0), user, "pw").value();
    RunOptions run;
    run.real_kernels = false;
    auto handle = fleet_env->submit_application(one_task_app(u), session, run);
    ASSERT_TRUE(handle.has_value()) << handle.error().to_string();
    handles.push_back(*handle);
  }
  ASSERT_TRUE(fleet_env->drain().ok());
  // The scenario is only meaningful if contention actually steered the
  // scheduler away from reserved machines.
  EXPECT_GT(
      fleet_env->metrics().counter("sched.contention.hosts_skipped").value(),
      0u);

  for (std::size_t u = 0; u < kTenants; ++u) {
    auto fleet_report = fleet_env->report(handles[u]);
    ASSERT_TRUE(fleet_report.has_value());
    ASSERT_TRUE(fleet_report->success);

    // Solo baseline: the same submission, same instant, same grid — alone.
    auto solo_env = make_env();
    const std::string user = "tenant" + std::to_string(u);
    ASSERT_TRUE(solo_env->try_add_user(user, "pw").ok());
    Session session = solo_env->login(common::SiteId(0), user, "pw").value();
    solo_env->run_for(kArrival);
    RunOptions run;
    run.real_kernels = false;
    auto solo = solo_env->run_application(one_task_app(u), session, run);
    ASSERT_TRUE(solo.has_value()) << solo.error().to_string();
    ASSERT_TRUE(solo->success);

    EXPECT_GE(fleet_report->makespan(), solo->makespan() - 1e-9)
        << "tenant " << u;
    // End-to-end latency additionally pays the admission wait.
    EXPECT_GE(fleet_report->completed - fleet_report->enqueued,
              solo->makespan() - 1e-9)
        << "tenant " << u;
    if (u == 0) {
      // The first admitted app saw an empty reservation table, so its
      // placement is bit-identical to the solo run's.
      ASSERT_EQ(fleet_report->outcomes.size(), solo->outcomes.size());
      EXPECT_EQ(fleet_report->outcomes[0].host, solo->outcomes[0].host);
      EXPECT_EQ(fleet_report->makespan(), solo->makespan());
    }
  }
}

// --- differential: submit/drain == run_application --------------------------

void expect_reports_identical(const runtime::ExecutionReport& a,
                              const runtime::ExecutionReport& b) {
  EXPECT_EQ(a.app.value(), b.app.value());
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.exec_started, b.exec_started);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.scheduling_time, b.scheduling_time);
  EXPECT_EQ(a.reschedules, b.reschedules);
  EXPECT_EQ(a.failures_survived, b.failures_survived);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const runtime::TaskOutcome& x = a.outcomes[i];
    const runtime::TaskOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.task, y.task);
    EXPECT_EQ(x.host, y.host);
    EXPECT_EQ(x.site, y.site);
    EXPECT_EQ(x.started, y.started);
    EXPECT_EQ(x.finished, y.finished);
    EXPECT_EQ(x.attempts, y.attempts);
  }
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].reason, b.recoveries[i].reason);
    EXPECT_EQ(a.recoveries[i].detected_at, b.recoveries[i].detected_at);
  }
  EXPECT_EQ(a.dag_edges, b.dag_edges);
}

// A lone submission redeemed with drain() must be indistinguishable — in
// the report, bit for bit, and in the emitted trace, byte for byte — from
// the synchronous run_application() path.  20 generated workloads, the
// stochastic execution path included.
TEST(TenancyDifferential, SubmitDrainMatchesRunApplicationBitForBit) {
  constexpr std::size_t kCases = 20;
  constexpr std::array<scale::WorkloadShape, 3> kShapes{
      scale::WorkloadShape::kLayered, scale::WorkloadShape::kForkJoin,
      scale::WorkloadShape::kRandomDag};
  for (std::size_t i = 0; i < kCases; ++i) {
    scale::WorkloadSpec w;
    w.shape = kShapes[i % kShapes.size()];
    w.tasks = 5 + (i * 3) % 16;
    w.width = 2 + i % 4;
    w.seed = 500 + i;
    afg::Afg graph = scale::make_workload(w, "diff-" + std::to_string(i));

    auto build_env = [] {
      EnvironmentOptions options;
      options.runtime.exec_noise_cv = 0.1;  // include the stochastic path
      options.trace.enabled = true;
      auto env = std::make_unique<VdceEnvironment>(make_campus_pair(17),
                                                   options);
      env->bring_up();
      EXPECT_TRUE(env->try_add_user("u", "p").ok());
      return env;
    };
    RunOptions run;
    run.real_kernels = false;

    auto sync_env = build_env();
    Session sync_session =
        sync_env->login(common::SiteId(0), "u", "p").value();
    auto sync_report = sync_env->run_application(graph, sync_session, run);
    ASSERT_TRUE(sync_report.has_value())
        << "case " << i << ": " << sync_report.error().to_string();

    auto async_env = build_env();
    Session async_session =
        async_env->login(common::SiteId(0), "u", "p").value();
    auto handle = async_env->submit_application(graph, async_session, run);
    ASSERT_TRUE(handle.has_value())
        << "case " << i << ": " << handle.error().to_string();
    ASSERT_TRUE(async_env->drain().ok());
    auto async_report = async_env->report(*handle);
    ASSERT_TRUE(async_report.has_value())
        << "case " << i << ": " << async_report.error().to_string();

    expect_reports_identical(*sync_report, *async_report);
    EXPECT_EQ(sync_env->trace().to_jsonl(), async_env->trace().to_jsonl())
        << "case " << i << ": traces diverge";
  }
}

// --- determinism regression --------------------------------------------------

// The full multi-tenant pipeline — staggered arrivals, admission, deferral,
// co-scheduled execution — replayed twice from the same spec must emit
// byte-identical traces.  Any hash-order or wall-clock dependence in the
// tenancy plane shows up here as a diff.
TEST(TenancyDeterminism, StaggeredEightTenantTraceIsByteIdentical) {
  auto run_once = [] {
    ScaleSpec scale_spec;
    scale_spec.grid.sites = 2;
    scale_spec.grid.hosts_per_site = 6;
    scale_spec.grid.seed = 77;
    scale_spec.options.trace.enabled = true;
    scale_spec.options.runtime.exec_noise_cv = 0.1;
    auto env = VdceEnvironment::make_scale_environment(scale_spec);
    EXPECT_TRUE(env.has_value());

    scale::TenantSpec spec;
    spec.tenants = 8;
    spec.apps_per_tenant = 2;
    spec.seed = 13;
    const auto arrivals = scale::make_tenant_arrivals(spec);
    std::vector<Session> sessions;
    for (std::size_t t = 0; t < spec.tenants; ++t) {
      const std::string user = "tenant" + std::to_string(t);
      EXPECT_TRUE((*env)->try_add_user(user, "pw").ok());
      sessions.push_back(
          (*env)->login(common::SiteId(0), user, "pw").value());
    }
    for (const scale::TenantArrival& a : arrivals) {
      if (a.at > (*env)->now()) (*env)->run_for(a.at - (*env)->now());
      afg::Afg graph = scale::make_workload(a.workload, a.app_name);
      RunOptions run;
      run.real_kernels = false;
      auto handle =
          (*env)->submit_application(graph, sessions[a.tenant], run);
      EXPECT_TRUE(handle.has_value());
    }
    EXPECT_TRUE((*env)->drain().ok());
    EXPECT_GE((*env)->tenancy_stats().completed,
              spec.tenants * spec.apps_per_tenant);
    return (*env)->trace().to_jsonl();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace vdce
