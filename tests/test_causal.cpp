// Tests for the causal-analysis layer (obs/causal.hpp): critical-path
// tiling, gap attribution, what-if slack, per-resource timelines, offline
// extraction from JSONL exports, exporter round-trips, the flight recorder,
// and the zero-cost discipline of the disabled observability path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "obs/causal.hpp"
#include "obs/obs.hpp"
#include "vdce/vdce.hpp"

// ---- global allocation counter ---------------------------------------------
// Replacement operator new that counts every heap allocation in the test
// binary, so the zero-cost tests can assert that the always-on flight
// recorder and the disabled-tracing call-site pattern allocate nothing.  The
// replacements stay out of line: inlined, GCC sees malloc() memory reach
// operator delete and reports -Wmismatched-new-delete.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vdce {
namespace {

using obs::causal::AppTrace;
using obs::causal::CriticalPath;
using obs::causal::HopKind;
using obs::causal::TaskExec;
using obs::causal::Transfer;

// ---- hand-built traces ------------------------------------------------------

/// Two tasks in series with a gap between them:
///   startup [0.5,1]  t0 runs [1,3] on host 2  (gap [3,4])  t1 runs [4,6] on
///   host 3, completion notice lands at 6.25.
AppTrace make_chain() {
  AppTrace app;
  app.app = 1;
  app.name = "chain";
  app.exec_started = 0.5;
  app.completed = 6.25;
  TaskExec t0;
  t0.task = 0;
  t0.name = "t0";
  t0.started = 1.0;
  t0.finished = 3.0;
  t0.host = 2;
  TaskExec t1;
  t1.task = 1;
  t1.name = "t1";
  t1.started = 4.0;
  t1.finished = 6.0;
  t1.host = 3;
  t1.deps = {0};
  app.tasks = {t0, t1};
  return app;
}

TEST(CriticalPath, TilesHandBuiltChainWithTransferAttribution) {
  AppTrace app = make_chain();
  Transfer tr;
  tr.src_task = 0;
  tr.dst_task = 1;
  tr.started = 3.0;
  tr.finished = 3.8;
  tr.src_host = 2;
  tr.dst_host = 3;
  tr.bytes = 1e5;
  app.transfers.push_back(tr);

  const CriticalPath cp = obs::causal::critical_path(app);
  ASSERT_EQ(cp.hops.size(), 6u);
  EXPECT_EQ(cp.hops[0].kind, HopKind::kStartup);
  EXPECT_EQ(cp.hops[1].kind, HopKind::kCompute);
  EXPECT_EQ(cp.hops[2].kind, HopKind::kTransfer);
  EXPECT_EQ(cp.hops[3].kind, HopKind::kWait);
  EXPECT_EQ(cp.hops[4].kind, HopKind::kCompute);
  EXPECT_EQ(cp.hops[5].kind, HopKind::kCompletion);

  // Contiguous tiling of [exec_started, completed].
  EXPECT_DOUBLE_EQ(cp.hops.front().start, app.exec_started);
  EXPECT_DOUBLE_EQ(cp.hops.back().end, app.completed);
  for (std::size_t i = 0; i + 1 < cp.hops.size(); ++i) {
    EXPECT_DOUBLE_EQ(cp.hops[i].end, cp.hops[i + 1].start) << "hop " << i;
  }

  EXPECT_DOUBLE_EQ(cp.phases.startup, 0.5);
  EXPECT_DOUBLE_EQ(cp.phases.compute, 4.0);
  EXPECT_DOUBLE_EQ(cp.phases.transfer, 0.8);
  EXPECT_NEAR(cp.phases.wait, 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(cp.phases.completion, 0.25);
  EXPECT_DOUBLE_EQ(cp.phases.recovery, 0.0);
  EXPECT_NEAR(cp.phases.total(), cp.makespan, 1e-12);
  EXPECT_DOUBLE_EQ(cp.makespan, 5.75);
  ASSERT_EQ(cp.task_chain.size(), 2u);
  EXPECT_EQ(cp.task_chain[0], 0u);
  EXPECT_EQ(cp.task_chain[1], 1u);
}

TEST(CriticalPath, RecoveryMarkSplitsUncoveredGap) {
  AppTrace app = make_chain();
  obs::causal::RecoveryMark mark;
  mark.at = 3.2;
  mark.task = 1;
  mark.reason = "host_down";
  app.recoveries.push_back(mark);

  const CriticalPath cp = obs::causal::critical_path(app);
  // startup, compute t0, wait [3,3.2], recovery [3.2,4], compute t1,
  // completion.
  ASSERT_EQ(cp.hops.size(), 6u);
  EXPECT_EQ(cp.hops[2].kind, HopKind::kWait);
  EXPECT_DOUBLE_EQ(cp.hops[2].start, 3.0);
  EXPECT_DOUBLE_EQ(cp.hops[2].end, 3.2);
  EXPECT_EQ(cp.hops[3].kind, HopKind::kRecovery);
  EXPECT_DOUBLE_EQ(cp.hops[3].start, 3.2);
  EXPECT_DOUBLE_EQ(cp.hops[3].end, 4.0);
  EXPECT_NEAR(cp.phases.recovery, 0.8, 1e-12);
  EXPECT_NEAR(cp.phases.total(), cp.makespan, 1e-12);
}

TEST(WhatIf, ExactSlackOnHandBuiltChain) {
  const AppTrace app = make_chain();
  const auto results = obs::causal::what_if(app, 2.0);
  ASSERT_EQ(results.size(), 2u);
  for (const obs::causal::WhatIf& w : results) {
    EXPECT_TRUE(w.on_critical_path);
    // Halving either 2 s task saves exactly 1 s: the dependent slides left
    // with its lag preserved and the 0.25 s coordinator tail is unchanged.
    EXPECT_DOUBLE_EQ(w.new_makespan, 4.75);
    EXPECT_NEAR(w.makespan_delta_pct, (4.75 - 5.75) / 5.75 * 100.0, 1e-9);
  }
  // Equal deltas tie-break on task id.
  EXPECT_EQ(results[0].task, 0u);
  EXPECT_EQ(results[1].task, 1u);
}

TEST(WhatIf, SpeedupOfOneReproducesOriginalMakespan) {
  const AppTrace app = make_chain();
  for (const obs::causal::WhatIf& w : obs::causal::what_if(app, 1.0)) {
    EXPECT_DOUBLE_EQ(w.new_makespan, app.makespan());
    EXPECT_DOUBLE_EQ(w.makespan_delta_pct, 0.0);
  }
}

TEST(Timeline, HostLanesAndIdleAttribution) {
  AppTrace app = make_chain();
  Transfer tr;
  tr.src_task = 0;
  tr.dst_task = 1;
  tr.started = 3.0;
  tr.finished = 3.8;
  tr.src_host = 2;
  tr.dst_host = 3;
  tr.bytes = 1e5;
  app.transfers.push_back(tr);

  const obs::causal::Timeline tl = obs::causal::timeline(
      app, {{2, 0, "m2"}, {3, 1, "m3"}});
  EXPECT_DOUBLE_EQ(tl.horizon_start, 0.5);
  EXPECT_DOUBLE_EQ(tl.horizon_end, 6.25);
  ASSERT_EQ(tl.hosts.size(), 2u);

  const obs::causal::HostTimeline& h2 = tl.hosts[0];
  EXPECT_EQ(h2.host, 2u);
  EXPECT_EQ(h2.name, "m2");
  EXPECT_EQ(h2.site, 0u);
  EXPECT_DOUBLE_EQ(h2.busy_time, 2.0);
  EXPECT_NEAR(h2.utilization, 2.0 / 5.75, 1e-12);

  // Host 3 idles [0.5,4] and [6,6.25]; the inbound transfer covers 0.8 s.
  const obs::causal::HostTimeline& h3 = tl.hosts[1];
  EXPECT_NEAR(h3.idle_transfer, 0.8, 1e-12);
  EXPECT_NEAR(h3.idle_wait, (6.25 - 0.5) - 2.0 - 0.8, 1e-12);
  EXPECT_NEAR(h3.busy_time + h3.idle_transfer + h3.idle_wait, 5.75, 1e-12);

  ASSERT_EQ(tl.links.size(), 1u);
  EXPECT_EQ(tl.links[0].name, "m2 -> m3");
  EXPECT_DOUBLE_EQ(tl.links[0].bytes, 1e5);
}

// ---- environment-level: the acceptance-criteria tests ----------------------

afg::Afg diamond_graph() {
  editor::AppBuilder app("causal-diamond");
  auto left = app.task("left", "synthetic.w800").output_data(2e5);
  auto right = app.task("right", "synthetic.w600").output_data(2e5);
  auto combine = app.task("combine", "synthetic.w400").output_data(5e4);
  auto finish = app.task("finish", "synthetic.w200");
  app.link(left, combine).value();
  app.link(right, combine).value();
  app.link(combine, finish).value();
  return app.build().value();
}

common::Expected<runtime::ExecutionReport> run_diamond(VdceEnvironment& env) {
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();
  RunOptions run;
  run.real_kernels = false;
  return env.run_application(diamond_graph(), session, run);
}

EnvironmentOptions traced_options() {
  EnvironmentOptions options;
  options.metrics.enabled = true;
  options.trace.enabled = true;
  return options;
}

TEST(CriticalPath, HopDurationsSumToMakespanOnDagExample) {
  VdceEnvironment env(make_campus_pair(), traced_options());
  auto report = run_diamond(env);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  ASSERT_TRUE(report->success);

  const CriticalPath cp = report->critical_path();
  ASSERT_FALSE(cp.hops.empty());
  EXPECT_DOUBLE_EQ(cp.hops.front().start, report->exec_started);
  EXPECT_DOUBLE_EQ(cp.hops.back().end, report->completed);
  for (std::size_t i = 0; i + 1 < cp.hops.size(); ++i) {
    EXPECT_DOUBLE_EQ(cp.hops[i].end, cp.hops[i + 1].start) << "hop " << i;
  }
  double sum = 0.0;
  for (const obs::causal::CriticalHop& hop : cp.hops) sum += hop.duration();
  EXPECT_NEAR(sum, report->makespan(), 1e-9);
  EXPECT_NEAR(cp.phases.total(), cp.makespan, 1e-9);
  EXPECT_DOUBLE_EQ(cp.makespan, report->makespan());

  // The walk ends at the sink task, and every chain link is a real edge.
  ASSERT_FALSE(cp.task_chain.empty());
  EXPECT_EQ(cp.task_chain.back(), 3u);  // "finish"

  // The what-if table marks exactly the chain tasks as critical.
  for (const obs::causal::WhatIf& w :
       obs::causal::what_if(report->causal_view(), 2.0)) {
    const bool in_chain = std::find(cp.task_chain.begin(), cp.task_chain.end(),
                                    w.task) != cp.task_chain.end();
    EXPECT_EQ(w.on_critical_path, in_chain) << "task " << w.task;
  }
}

TEST(CriticalPath, OfflineExtractionReproducesLiveCriticalPath) {
  VdceEnvironment env(make_campus_pair(), traced_options());
  auto report = run_diamond(env);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->success);

  const std::string jsonl = env.trace().to_jsonl();
  auto parsed = obs::parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->tracks.size(), env.topology().host_count());

  auto apps = obs::causal::extract_apps(*parsed);
  ASSERT_EQ(apps.size(), 1u);
  const AppTrace& offline = apps[0];
  EXPECT_EQ(offline.tasks.size(), 4u);
  EXPECT_FALSE(offline.transfers.empty());
  // The JSONL export renders times with 9 significant digits, so offline
  // values agree with the live report to that precision, not bit-for-bit.
  EXPECT_NEAR(offline.exec_started, report->exec_started, 1e-6);
  EXPECT_NEAR(offline.completed, report->completed, 1e-6);

  const CriticalPath live = report->critical_path();
  const CriticalPath from_trace = obs::causal::critical_path(offline);
  EXPECT_EQ(from_trace.task_chain, live.task_chain);
  EXPECT_NEAR(from_trace.makespan, live.makespan, 1e-6);
  EXPECT_NEAR(from_trace.phases.total(), from_trace.makespan, 1e-9);
  // The trace knows about transfers the in-process report does not, so its
  // gap attribution is at least as refined: compute time matches to export
  // precision.
  EXPECT_NEAR(from_trace.phases.compute, live.phases.compute, 1e-6);

  // The rendered offline report holds every section.
  const std::string text =
      obs::causal::render_report(offline, parsed->tracks);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("hosts:"), std::string::npos);
  EXPECT_NE(text.find("what-if"), std::string::npos);
}

// ---- exporter round-trips ---------------------------------------------------

TEST(RoundTrip, ParsedJsonlReRendersByteIdentical) {
  VdceEnvironment env(make_campus_pair(), traced_options());
  auto report = run_diamond(env);
  ASSERT_TRUE(report.has_value());

  const std::string jsonl = env.trace().to_jsonl();
  auto parsed = obs::parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->events.size(), env.trace().size());
  EXPECT_EQ(parsed->tracks.size(), env.trace().tracks().size());
  EXPECT_EQ(obs::render_jsonl(parsed->tracks, parsed->events), jsonl);

  // Causal tags survive the round trip on execution spans.
  bool saw_deps = false;
  for (const obs::TraceEvent& ev : parsed->events) {
    if (ev.name == "exec.task" && !ev.causal.deps.empty()) saw_deps = true;
  }
  EXPECT_TRUE(saw_deps);
}

TEST(RoundTrip, ParseRejectsMalformedLinesWithLineNumber) {
  auto missing = obs::parse_jsonl("{\"phase\":\"span\",\"cat\":\"x\"}\n");
  ASSERT_FALSE(missing.has_value());
  EXPECT_NE(missing.error().message.find("line 1"), std::string::npos);

  auto garbage = obs::parse_jsonl(
      "{\"meta\":\"track\",\"track\":0,\"site\":0,\"name\":\"m\"}\nnot json\n");
  ASSERT_FALSE(garbage.has_value());
  EXPECT_NE(garbage.error().message.find("line 2"), std::string::npos);
}

TEST(ChromeExport, MapsPidToSiteAndTidToHost) {
  obs::TraceSink sink(obs::TraceOptions{.enabled = true});
  sink.set_tracks({{4, 1, "m4"}});
  sink.span("exec", "exec.task", 1.0, 2.0, 4, {},
            obs::Causal{.app = 1, .task = 2});
  const std::string chrome = sink.to_chrome_trace();
  // pid = site + 1 (pid 0 is the control plane), tid = host track.
  EXPECT_NE(chrome.find("\"pid\":2,\"tid\":4"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"site 1\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"m4\""), std::string::npos);
  EXPECT_NE(chrome.find("\"causal_app\":1"), std::string::npos);
  EXPECT_NE(chrome.find("\"causal_task\":2"), std::string::npos);
}

// ---- flight recorder --------------------------------------------------------

TEST(Flight, RingWrapsAndKeepsNewestOldestFirst) {
  obs::FlightRecorder recorder(obs::FlightOptions{.capacity = 4});
  for (int i = 0; i < 10; ++i) {
    recorder.record(static_cast<double>(i), obs::FlightCode::kTaskDone, 0,
                    static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(recorder.total(), 10u);
  EXPECT_EQ(recorder.capacity(), 4u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);  // bounded memory: only the ring survives
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].t, static_cast<double>(6 + i));
  }
  const std::string jsonl = recorder.render_jsonl();
  EXPECT_NE(jsonl.find("\"meta\":\"flight\",\"total\":10,\"retained\":4"),
            std::string::npos);
}

TEST(Flight, DisabledRecorderRecordsNothing) {
  obs::FlightRecorder recorder(obs::FlightOptions{.enabled = false});
  recorder.record(1.0, obs::FlightCode::kHostDown, 3);
  EXPECT_EQ(recorder.total(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(Flight, PostMortemDumpsOnRecoveryEscalation) {
  net::Topology topology = make_campus_pair(13);
  const net::Site& site0 = topology.site(common::SiteId(0));
  const std::string host_a = topology.host(site0.hosts[1]).spec.name;
  const std::string host_b = topology.host(site0.hosts[2]).spec.name;

  chaos::FaultPlan plan;
  plan.name("escalate").crash(host_a, 1.5);
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  // Echo detection (~0.5 s) must beat the coordinator's stall sweep to the
  // single recovery action, so the escalation story reads host_down ->
  // escalation rather than a bare stall.
  options.runtime.echo_period = 0.5;
  options.runtime.max_app_recovery_actions = 0;  // first recovery escalates
  options.faults = std::move(plan);
  const std::string path = "test_causal_postmortem.jsonl";
  options.flight.postmortem_path = path;
  std::filesystem::remove(path);

  VdceEnvironment env(std::move(topology), options);
  ASSERT_TRUE(env.try_bring_up().ok());
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  editor::AppBuilder builder("pinned-chain");
  auto s0 = builder.task("s0", "synthetic.w2000")
                .prefer_machine(host_a)
                .output_data(1e5);
  auto s1 = builder.task("s1", "synthetic.w2000").prefer_machine(host_b);
  ASSERT_TRUE(builder.link(s0, s1).has_value());

  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(builder.build().value(), session, run);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_FALSE(report->success);  // budget 0: the crash escalates

  // The environment dumped the ring on the failed run, and the dump ends
  // with the escalation story: host down -> escalation -> app failed.
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("\"code\":\"host_down\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"code\":\"escalation\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"code\":\"app_done\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"meta\":\"flight\""), std::string::npos) << dump;
  EXPECT_GT(env.flight_recorder().total(), 0u);
  std::filesystem::remove(path);
}

TEST(Flight, SuccessfulRunLeavesNoPostMortem) {
  EnvironmentOptions options = traced_options();
  const std::string path = "test_causal_no_postmortem.jsonl";
  options.flight.postmortem_path = path;
  std::filesystem::remove(path);
  VdceEnvironment env(make_campus_pair(), options);
  auto report = run_diamond(env);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->success);
  EXPECT_GT(env.flight_recorder().total(), 0u);  // the ring still recorded
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---- zero-cost discipline ---------------------------------------------------

TEST(ZeroCost, EnabledFlightRecorderNeverAllocatesPerRecord) {
  obs::FlightRecorder recorder(obs::FlightOptions{.capacity = 128});
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    recorder.record(static_cast<double>(i), obs::FlightCode::kTaskDone, 1, 2,
                    3, 4.0);
  }
  EXPECT_EQ(g_allocations.load(), before);  // wraps without allocating
}

TEST(ZeroCost, DisabledObservabilityPathAllocatesNothing) {
  obs::TraceSink sink;  // default: disabled
  obs::FlightRecorder flight(obs::FlightOptions{.enabled = false});
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    // The exact guarded pattern every instrumentation site uses: with the
    // sink off, no record (and none of its strings) is ever built.
    if (sink.enabled()) {
      sink.instant("exec", "exec.run_started", 1.0, 0,
                   {obs::arg("app", std::uint32_t{1})});
    }
    flight.record(1.0, obs::FlightCode::kTaskStart, 0, 1, 2);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

}  // namespace
}  // namespace vdce
