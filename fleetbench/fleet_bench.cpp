// Fleet benchmark harness: one whole-grid run of one workload per process.
//
//   fleet_bench --workload <fleet-burst|stream-faults> --seed <n> [--traced]
//
// The run brings a generated 32x32 grid (1024 hosts) up through
// VdceEnvironment::make_scale_environment, submits the workload's AFGs
// through submit_application and drains.  Every input (AFGs, arrival
// instants and sites, fault plan, runtime seed) is generated from the seed
// before any clock starts.  The program is observed only from outside:
// timing calls into its public functions, counting heap allocations with a
// global operator-new hook, and reading the counters it already exports
// (Engine, Fabric::stats(), tenancy_stats(), ExecutionReport and, in a
// traced run, metrics()).  Just before and after the timed region it also
// times a fixed loop of its own (SpeedReference), by which run.py scales
// host times to a reference machine speed.
//
// An untimed run leaves metrics off.  A traced run (--traced) turns
// EnvironmentOptions.metrics on and performs the steps of
// make_scale_environment itself so each can be timed.  run.py starts these
// processes, pools their results, checks that their deterministic parts
// agree, and prints the benchmark's result line; README.md says why each
// workload exists and which layer figure should move which end-to-end one.
//
// Output: one JSON object on stdout with the groups
//   host    host-clock figures (vary from run to run)
//   det     deterministic counts and simulated-time figures
//   apps    per-submission simulated times (null = failed or rejected)
//   phases  per-app breakdown() phases of the timed region
//   allocs  heap allocations per region (deterministic; enabling metrics
//           allocates, so only untimed runs report the program's own)
//   layer   metrics-registry counters (traced runs only)
//   checks  correctness checks; `errors` names any that failed
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "scale/generate.hpp"
#include "sched/site_scheduler.hpp"
#include "vdce/environment.hpp"

// --- allocation counter -----------------------------------------------------
// Every replaceable allocation form except the aligned ones (which pair with
// the runtime's own aligned delete), so each allocation is counted once and
// freed by the function that matches its allocator, also under sanitizers
// that supply their own operator new.  The deletes stay out of line:
// inlined, GCC reports free() on operator-new memory as
// -Wmismatched-new-delete.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace vdce;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSites = 32;
constexpr std::size_t kHostsPerSite = 32;
constexpr std::size_t kApps = 64;
constexpr const char* kUser = "fleet_admin";
constexpr const char* kPassword = "fleet";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// splitmix64 stream: the benchmark's own random choices, independent of
/// the program's RNG.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t x = (state_ += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t index(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// --- inputs -----------------------------------------------------------------

struct Submission {
  double at = 0.0;       ///< simulated submission instant
  std::size_t site = 0;  ///< site the submitting user is logged in at
  afg::Afg graph;
};

struct Inputs {
  ScaleSpec spec;
  std::vector<Submission> submissions;  ///< sorted by `at`
};

afg::Afg make_app(scale::WorkloadShape shape, std::size_t tasks,
                  std::uint64_t seed, const std::string& name) {
  scale::WorkloadSpec w;
  w.shape = shape;
  w.tasks = tasks;
  w.width = 8;
  w.seed = seed;
  // A tenth of the generator's default compute per task.  At full size a
  // fleet-burst app that the contended scheduler packs onto one machine
  // runs for thousands of simulated seconds after the rest have finished,
  // so drain time and run_s swing by 2x from seed to seed.
  w.min_mflop = 5.0;
  w.max_mflop = 250.0;
  return scale::make_workload(w, name);
}

/// Machines of the candidate sites of an app submitted at `site` (the site
/// and its k nearest) that are neither a VDCE server nor a group leader,
/// fastest first.
std::vector<common::HostId> fault_candidates(const net::Topology& topology,
                                             std::size_t site,
                                             std::size_t k_nearest) {
  const common::SiteId local(static_cast<std::uint32_t>(site));
  std::vector<common::SiteId> sites = topology.nearest_sites(local, k_nearest);
  sites.push_back(local);
  std::vector<common::HostId> out;
  for (common::SiteId id : sites) {
    const net::Site& s = topology.site(id);
    for (common::HostId h : s.hosts) {
      bool special = h == s.server;
      for (common::GroupId g : s.groups) {
        special = special || h == topology.group(g).leader;
      }
      if (!special) out.push_back(h);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [&](common::HostId a, common::HostId b) {
                     return topology.host(a).spec.speed_mflops >
                            topology.host(b).spec.speed_mflops;
                   });
  return out;
}

/// stream-faults: the stream starts this far into the run, after the crashes.
constexpr double kStreamStart = 60.0;
/// stream-faults: 5% loss on data-manager traffic starts here, once the
/// first wave's load spikes (the last ends by 111 s) are over.
constexpr double kLossStart = 120.0;

/// The stream-faults plan, with its faults kept apart in time.  Re-placing
/// work while an app is in channel setup, or while dm.* loss is active, can
/// wedge the app forever (README.md, "Known defects").  So:
///  - eight crashes with reboot land on the idle grid before the stream
///    starts; they exercise failure detection, the repositories and
///    rejoining machines;
///  - eight load spikes past the overload threshold, each on one of the
///    fastest machines of a first-wave app (apps 0-7 are admitted at once,
///    from sites 0-7), re-place running work;
///  - 5% loss on dm.* traffic from kLossStart on, and one partition between
///    two sites inside that window, make setup and data transfers retry.
chaos::FaultPlan make_fault_plan(const net::Topology& grid,
                                 std::size_t k_nearest, SeedStream& seeds) {
  chaos::FaultPlan plan;
  plan.name("stream-faults").seed(seeds.next());
  for (std::size_t k = 0; k < 8; ++k) {
    const std::vector<common::HostId> hosts =
        fault_candidates(grid, seeds.index(kSites), k_nearest);
    plan.crash(hosts[seeds.index(hosts.size())],
               seeds.uniform(5.0, kStreamStart - 10.0),
               seeds.uniform(30.0, 120.0));
  }
  for (std::size_t k = 0; k < 8; ++k) {
    const std::vector<common::HostId> hosts =
        fault_candidates(grid, k, k_nearest);
    plan.slow(hosts[1 + seeds.index(3)],
              kStreamStart + 4.0 * static_cast<double>(k) +
                  seeds.uniform(3.0, 8.0),
              15.0, 4.0);
  }
  const std::size_t a = seeds.index(kSites);
  const std::size_t b = (a + 1 + seeds.index(kSites - 1)) % kSites;
  plan.partition(static_cast<std::int64_t>(a), static_cast<std::int64_t>(b),
                 seeds.uniform(kLossStart + 40.0, kLossStart + 140.0), 20.0);
  plan.loss(0.05, kLossStart, 1e6, "dm.");
  return plan;
}

std::optional<Inputs> make_inputs(const std::string& workload,
                                  std::uint64_t seed, bool traced) {
  SeedStream seeds(seed);
  Inputs in;
  // The grid is the fixed testbed; the seed draws everything run on it.
  in.spec.grid.sites = kSites;
  in.spec.grid.hosts_per_site = kHostsPerSite;
  in.spec.grid.seed = 1;
  in.spec.options.runtime.seed = seeds.next();
  in.spec.options.metrics.enabled = traced;
  // A drain still running two simulated hours in has hung; fail the run
  // instead of simulating the default day.
  in.spec.options.sync_timeout = 7200.0;
  in.spec.admin_user = kUser;
  in.spec.admin_password = kPassword;

  const scale::WorkloadShape cycle[] = {
      scale::WorkloadShape::kLayered, scale::WorkloadShape::kForkJoin,
      scale::WorkloadShape::kRandomDag, scale::WorkloadShape::kParamSweep};

  if (workload == "fleet-burst") {
    // 64 layered AFGs of 128 tasks at t=0 from one site, admission
    // unbounded: 8192 tasks on the ~100 machines of the site's candidate
    // set, so most scheduling rounds collide and defer.
    in.spec.options.tenancy.max_in_flight = 0;
    in.spec.options.tenancy.max_queue_depth = 0;
    for (std::size_t i = 0; i < kApps; ++i) {
      in.submissions.push_back(
          {0.0, 0,
           make_app(scale::WorkloadShape::kLayered, 128, seeds.next(),
                    "burst-" + std::to_string(i))});
    }
  } else if (workload == "stream-faults") {
    // Open loop in simulated time: one AFG of 128 tasks every 4 s, shapes
    // cycling, from users spread over the sites, default admission.
    for (std::size_t i = 0; i < kApps; ++i) {
      in.submissions.push_back(
          {kStreamStart + 4.0 * static_cast<double>(i), i % kSites,
           make_app(cycle[i % 4], 128, seeds.next(),
                    "stream-" + std::to_string(i))});
    }
    in.spec.options.faults =
        make_fault_plan(scale::make_grid(in.spec.grid),
                        in.spec.options.runtime.k_nearest, seeds);
  } else {
    return std::nullopt;
  }
  return in;
}

// --- figures ----------------------------------------------------------------

using Figures = std::map<std::string, double>;
using Series = std::map<std::string, std::vector<double>>;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

/// Counts the program exports with metrics off, over the timed region.
void read_counts(VdceEnvironment& env, Figures& det) {
  const sim::Engine& engine = env.engine();
  det["sim.events"] = static_cast<double>(engine.total_fired());
  det["sim.events_scheduled"] = static_cast<double>(engine.total_scheduled());
  det["sim.max_queue_depth"] = static_cast<double>(engine.max_queue_depth());
  det["sim.arena_high_water"] = static_cast<double>(engine.arena_high_water());

  const net::FabricStats& fabric = env.fabric().stats();
  det["net.messages"] = static_cast<double>(fabric.sent);
  det["net.delivered"] = static_cast<double>(fabric.delivered);
  det["net.bytes"] = fabric.bytes_sent;
  det["net.dropped"] = static_cast<double>(
      fabric.dropped_dst_down + fabric.dropped_src_down +
      fabric.dropped_unbound + fabric.dropped_injected);
  det["net.dropped_injected"] = static_cast<double>(fabric.dropped_injected);
  for (const char* prefix : {"mon", "gm", "sm", "dm", "ac"}) {
    det[std::string("net.msgs.") + prefix] = 0.0;
  }
  for (const auto& [type, n] : fabric.sent_by_type) {
    det["net.msgs." + type.substr(0, type.find('.'))] +=
        static_cast<double>(n);
  }

  const tenancy::TenancyStats& t = env.tenancy_stats();
  det["tenancy.submitted"] = static_cast<double>(t.submitted);
  det["tenancy.rejected"] = static_cast<double>(t.rejected);
  det["tenancy.admitted"] = static_cast<double>(t.admitted);
  det["tenancy.deferrals"] = static_cast<double>(t.deferred);
  det["tenancy.completed"] = static_cast<double>(t.completed);
  det["tenancy.peak_in_flight"] = static_cast<double>(t.peak_in_flight);

  det["chaos.log_records"] =
      env.chaos() != nullptr ? static_cast<double>(env.chaos()->log().size())
                             : 0.0;
}

/// Metrics-registry counters of a traced run (0 when never incremented).
void read_metrics(VdceEnvironment& env, Figures& layer) {
  obs::MetricsRegistry& m = env.metrics();
  for (const char* name :
       {"sched.requests", "sched.assign.runs",
        "sched.contention.hosts_skipped", "tenancy.deferrals",
        "monitor.samples", "monitor.reports_forwarded", "monitor.echo_rounds",
        "exec.tasks_completed", "recovery.stall_resends",
        "recovery.reschedules", "recovery.relaunches", "chaos.log_records"}) {
    layer[name] = static_cast<double>(m.counter_value(name));
  }
}

// --- correctness --------------------------------------------------------------

struct Checks {
  std::map<std::string, bool> passed;
  std::vector<std::string> errors;

  /// Records one check; the first failure of each check keeps its detail.
  void expect(const std::string& check, bool ok, const std::string& detail) {
    bool& state = passed.try_emplace(check, true).first->second;
    if (!ok && state) errors.push_back(check + ": " + detail);
    state = state && ok;
  }
};

/// One application's busy claim on one host, for the double-booking audit.
struct HostClaim {
  std::uint32_t host = 0;
  std::size_t app = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Pairwise host-exclusivity audit over every report: two applications'
/// busy intervals on one host must not overlap (shared endpoints are fine).
void audit_double_booking(std::vector<HostClaim> claims, Checks& checks) {
  std::sort(claims.begin(), claims.end(),
            [](const HostClaim& a, const HostClaim& b) {
              return a.host != b.host ? a.host < b.host : a.start < b.start;
            });
  std::string detail;
  for (std::size_t i = 1; i < claims.size() && detail.empty(); ++i) {
    const HostClaim& prev = claims[i - 1];
    const HostClaim& cur = claims[i];
    if (cur.host == prev.host && cur.app != prev.app && cur.start < prev.end) {
      detail = "host " + std::to_string(cur.host) + " held by apps " +
               std::to_string(prev.app) + " and " + std::to_string(cur.app);
    }
  }
  checks.expect("no_double_booking", detail.empty(), detail);
}

/// Empty when `table` is valid for `graph`: every task placed exactly once,
/// on hosts of the assignment's site, with the task's node count, and with
/// estimates that respect every dependency.
std::string table_problem(const afg::Afg& graph,
                          const sched::ResourceAllocationTable& table,
                          const net::Topology& topology) {
  const std::string app = graph.name() + ": task ";
  if (table.assignments.size() != graph.task_count()) {
    return graph.name() + ": " + std::to_string(table.assignments.size()) +
           " rows for " + std::to_string(graph.task_count()) + " tasks";
  }
  std::vector<const sched::Assignment*> row(graph.task_count(), nullptr);
  for (const sched::Assignment& a : table.assignments) {
    const std::uint32_t t = a.task.value();
    if (t >= row.size() || row[t] != nullptr) {
      return app + std::to_string(t) + " placed twice or unknown";
    }
    row[t] = &a;
    const afg::TaskNode& node = graph.task(a.task);
    if (a.hosts.size() != static_cast<std::size_t>(node.props.num_nodes)) {
      return app + std::to_string(t) + " got " +
             std::to_string(a.hosts.size()) + " hosts";
    }
    for (common::HostId h : a.hosts) {
      if (h.value() >= topology.host_count() ||
          topology.host(h).site != a.site) {
        return app + std::to_string(t) + " on a host outside its site";
      }
    }
    if (!(a.est_finish >= a.est_start)) {
      return app + std::to_string(t) + " finishes before it starts";
    }
  }
  for (const afg::Edge& e : graph.edges()) {
    if (row[e.to.value()]->est_start <
        row[e.from.value()]->est_finish - 1e-9) {
      return app + std::to_string(e.to.value()) + " starts before parent " +
             std::to_string(e.from.value()) + " finishes";
    }
  }
  return {};
}

// --- machine speed ----------------------------------------------------------

/// The host's speed at the moment, as the time of a fixed discrete-event
/// loop: a binary heap of timestamps in which each event updates a random
/// slot of a 1 MB table.  Other tenants of a shared machine slow every run
/// by up to 2x for minutes at a time, and this loop slows with it; run.py
/// scales host times by it.  It is the benchmark's own code, so a change to
/// the program does not move it, and its memory is allocated once, before
/// the grid exists, so the program's heap does not either.
class SpeedReference {
 public:
  SpeedReference() : table_(std::size_t{1} << 17), heap_(kEvents) {}

  /// Seconds of one pass over the fixed event sequence.
  double sample() {
    SeedStream seeds(1);
    const auto later = [](double a, double b) { return a > b; };
    for (double& t : heap_) t = seeds.uniform(0.0, 1.0);
    std::make_heap(heap_.begin(), heap_.end(), later);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const std::uint64_t r = seeds.next();
      std::uint64_t& slot = table_[r & (table_.size() - 1)];
      slot = slot * 31 + r;
      heap_.back() += 0.5 + static_cast<double>(slot & 0xff) * 0x1.0p-8;
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    return seconds_since(t0);
  }

  /// Median of `n` samples.
  double seconds(int n) {
    std::vector<double> samples;
    for (int k = 0; k < n; ++k) samples.push_back(sample());
    return median(std::move(samples));
  }

 private:
  static constexpr std::size_t kEvents = 4096;
  static constexpr int kSteps = 100000;
  std::vector<std::uint64_t> table_;
  std::vector<double> heap_;
};

// --- the run ----------------------------------------------------------------

struct Result {
  Figures host;
  Figures det;
  Series apps;
  Series phases;
  Figures allocs;
  Figures layer;
  Checks checks;
};

/// Accumulates host time and allocations over the calls it wraps.
struct Span {
  double seconds = 0.0;
  std::uint64_t allocs = 0;

  template <typename F>
  decltype(auto) operator()(F&& call) {
    struct Close {
      Span& span;
      std::uint64_t a0 = ::allocs();
      Clock::time_point t0 = Clock::now();
      ~Close() {
        span.seconds += seconds_since(t0);
        span.allocs += ::allocs() - a0;
      }
    } close{*this};
    return call();
  }
};

/// One bring-up.  An untimed run calls make_scale_environment; a traced run
/// performs its steps itself so each is timed on its own.  Null on failure,
/// with the error recorded in `checks`.
std::unique_ptr<VdceEnvironment> set_up_once(const Inputs& in, bool traced,
                                             Figures& seconds,
                                             Checks& checks) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<VdceEnvironment> env;
  common::Status status;
  if (!traced) {
    auto made = VdceEnvironment::make_scale_environment(in.spec);
    if (made) {
      env = std::move(*made);
    } else {
      status = made.error();
    }
  } else {
    Span grid;
    Span bring_up;
    Span add_user;
    net::Topology topology =
        grid([&] { return scale::make_grid(in.spec.grid); });
    status = bring_up([&] {
      env = std::make_unique<VdceEnvironment>(std::move(topology),
                                              in.spec.options);
      env->engine().reserve_events(env->topology().host_count() * 8);
      return env->try_bring_up();
    });
    if (status.ok()) {
      status = add_user([&] { return env->try_add_user(kUser, kPassword); });
    }
    seconds["setup.make_grid_s"] = grid.seconds;
    seconds["setup.bring_up_s"] = bring_up.seconds;
    seconds["setup.add_user_s"] = add_user.seconds;
  }
  seconds["setup_s"] = seconds_since(t0);
  checks.expect("set_up", status.ok(),
                status.ok() ? "" : status.error().to_string());
  return status.ok() ? std::move(env) : nullptr;
}

/// Brings the grid up kSetups times and reports the median of each step;
/// the last environment is the one the run uses.  Bring-up takes
/// milliseconds, so a single sample would be mostly timer and cache noise.
std::unique_ptr<VdceEnvironment> set_up(const Inputs& in, bool traced,
                                        Result& r) {
  constexpr int kSetups = 9;
  Series samples;
  std::unique_ptr<VdceEnvironment> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    Figures seconds;
    const std::uint64_t a0 = allocs();
    env = set_up_once(in, traced, seconds, r.checks);
    r.allocs["setup.allocs"] = static_cast<double>(allocs() - a0);
    if (!env) return nullptr;
    for (const auto& [name, value] : seconds) samples[name].push_back(value);
  }
  for (const auto& [name, values] : samples) r.host[name] = median(values);
  return env;
}

struct Submitted {
  std::optional<AppHandle> handle;  ///< empty when submit was rejected
  const afg::Afg* graph = nullptr;
};

/// Submits `subs` at their simulated instants, then drains.
std::vector<Submitted> submit_and_drain(VdceEnvironment& env,
                                        const std::vector<Session>& sessions,
                                        const std::vector<Submission>& subs,
                                        Span& submit, Span& drive,
                                        Checks& checks) {
  RunOptions run;
  run.real_kernels = false;
  std::vector<Submitted> out;
  for (const Submission& s : subs) {
    if (s.at > env.now()) drive([&] { env.run_for(s.at - env.now()); });
    auto handle = submit([&] {
      return env.submit_application(s.graph, sessions[s.site], run);
    });
    out.push_back({handle ? std::optional<AppHandle>(*handle) : std::nullopt,
                   &s.graph});
  }
  common::Status drained = drive([&] { return env.drain(); });
  checks.expect("drained", drained.ok(),
                drained.ok() ? "" : drained.error().to_string());
  return out;
}

/// Per-submission simulated times, breakdown() phases and the correctness
/// checks over one batch.
void assess(VdceEnvironment& env, const std::vector<Submitted>& batch,
            double first_submit, Span& report, Result& r) {
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  std::vector<HostClaim> claims;
  std::size_t failed = 0;
  std::size_t tasks_completed = 0;
  Figures recoveries;
  r.checks.expect("all_terminal", true, "");
  r.checks.expect("apps_complete", true, "");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Submitted& s = batch[i];
    std::optional<runtime::ExecutionReport> rep;
    if (s.handle) {
      auto state = env.app_state(*s.handle);
      r.checks.expect("all_terminal", state && *state == AppState::kFinished,
                      s.graph->name() + " not terminal after drain");
      auto fetched = report([&] { return env.report(*s.handle); });
      if (fetched && fetched->success) rep = std::move(*fetched);
    }
    if (!rep) {
      ++failed;
      r.apps["turnaround_s"].push_back(kFailed);
      r.apps["start_delay_s"].push_back(kFailed);
      continue;
    }
    r.apps["turnaround_s"].push_back(rep->completed - rep->enqueued);
    r.apps["start_delay_s"].push_back(rep->exec_started - rep->enqueued);
    const auto b = rep->breakdown();
    r.phases["scheduling_s"].push_back(b.scheduling);
    r.phases["setup_s"].push_back(b.setup);
    r.phases["execution_s"].push_back(b.execution);
    r.phases["contention_s"].push_back(b.contention);
    std::vector<bool> done(s.graph->task_count(), false);
    for (const runtime::TaskOutcome& o : rep->outcomes) {
      if (o.task.value() < done.size() && o.finished >= o.started) {
        done[o.task.value()] = true;
      }
      claims.push_back({o.host.value(), i, o.started, o.finished});
    }
    const auto n_done =
        static_cast<std::size_t>(std::count(done.begin(), done.end(), true));
    tasks_completed += n_done;
    r.checks.expect("apps_complete", n_done == s.graph->task_count(),
                    s.graph->name() + " completed " + std::to_string(n_done) +
                        " of " + std::to_string(s.graph->task_count()) +
                        " tasks");
    for (const runtime::RecoveryEvent& e : rep->recoveries) {
      recoveries["recovery." + e.reason] += 1.0;
    }
  }
  audit_double_booking(std::move(claims), r.checks);

  r.det["attempted"] = static_cast<double>(batch.size());
  r.det["failed"] = static_cast<double>(failed);
  r.det["fleet_span_s"] = env.now() - first_submit;
  r.det["apps.tasks_completed"] = static_cast<double>(tasks_completed);
  for (const char* reason :
       {"host_down", "overload", "cascade", "pin", "stall", "relaunch"}) {
    r.det[std::string("recovery.") + reason] = 0.0;
  }
  for (const auto& [name, n] : recoveries) r.det[name] = n;
}

/// sched.probe_ms: host time of VdceSiteScheduler::schedule on the
/// workload's own AFGs against the drained grid's live repositories, and a
/// validity check of every table it returns.
void probe_scheduler(VdceEnvironment& env, const Inputs& in, Result& r) {
  runtime::RuntimeCore& core = env.core();
  sched::SchedulerContext ctx;
  ctx.topology = &env.topology();
  for (db::SiteRepository* repo : core.repos()) ctx.repos.push_back(repo);
  ctx.predictor = &core.predictor();
  ctx.k_nearest = core.options().k_nearest;
  sched::VdceSiteScheduler scheduler;
  std::vector<double> ms;
  std::string problem;
  for (const Submission& s : in.submissions) {
    ctx.local_site = common::SiteId(static_cast<std::uint32_t>(s.site));
    const Clock::time_point t0 = Clock::now();
    auto table = scheduler.schedule(s.graph, ctx);
    ms.push_back(seconds_since(t0) * 1e3);
    if (!problem.empty()) continue;
    problem = table ? table_problem(s.graph, *table, env.topology())
                    : s.graph.name() + ": " + table.error().to_string();
  }
  r.checks.expect("probe_tables_valid", problem.empty(), problem);
  r.host["sched.probe_ms"] = median(ms);
}

Result run(const Inputs& in, bool traced) {
  Result r;
  SpeedReference speed;
  std::unique_ptr<VdceEnvironment> env_ptr = set_up(in, traced, r);
  if (!env_ptr) return r;
  VdceEnvironment& env = *env_ptr;
  std::vector<Session> sessions;
  for (std::size_t site = 0; site < kSites; ++site) {
    auto session = env.login(common::SiteId(static_cast<std::uint32_t>(site)),
                             kUser, kPassword);
    if (!session) {
      r.checks.expect("set_up", false, session.error().to_string());
      return r;
    }
    sessions.push_back(*session);
  }

  Span submit;
  Span drive;
  Span report;
  const double speed_before = speed.seconds(15);
  const Clock::time_point t0 = Clock::now();
  const std::vector<Submitted> batch = submit_and_drain(
      env, sessions, in.submissions, submit, drive, r.checks);
  r.host["run_s"] = seconds_since(t0);
  r.host["speed.ref_s"] = 0.5 * (speed_before + speed.seconds(15));
  r.host["sim.run_s"] = env.engine().wall_seconds_in_run();
  r.allocs["vdce.drive.allocs"] = static_cast<double>(drive.allocs);
  r.allocs["vdce.submit.allocs"] = static_cast<double>(submit.allocs);

  // Every per-layer figure covers the timed region only.
  read_counts(env, r.det);
  if (traced) read_metrics(env, r.layer);

  assess(env, batch, in.submissions.front().at, report, r);
  probe_scheduler(env, in, r);

  r.host["vdce.submit_s"] = submit.seconds;
  r.host["vdce.drive_s"] = drive.seconds;
  r.host["vdce.report_s"] = report.seconds;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.host["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

// --- output -------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "null";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

template <typename Map, typename Emit>
std::string json_object(const Map& map, Emit emit) {
  std::string out = "{";
  for (const auto& [name, value] : map) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":" + emit(value);
  }
  return out + "}";
}

std::string json_figures(const Figures& figures) {
  return json_object(figures, json_number);
}

std::string json_series(const Series& series) {
  return json_object(series, [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) {
      if (out.size() > 1) out += ",";
      out += json_number(v);
    }
    return out + "]";
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      const std::string text = argv[++i];
      std::uint64_t v = 0;
      auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec == std::errc{} && end == text.data() + text.size()) seed = v;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "fleet_bench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!seed) {
    std::fprintf(stderr, "fleet_bench: --seed <unsigned integer> required\n");
    return 2;
  }
  std::optional<Inputs> inputs = make_inputs(workload, *seed, traced);
  if (!inputs) {
    std::fprintf(stderr, "fleet_bench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  const Result r = run(*inputs, traced);

  const std::string checks = json_object(
      r.checks.passed, [](bool ok) { return ok ? "true" : "false"; });
  std::string errors = "[";
  for (const std::string& e : r.checks.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_string(e);
  }
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"host\":%s,\"det\":%s,"
      "\"apps\":%s,\"phases\":%s,\"allocs\":%s,\"layer\":%s,\"checks\":%s,"
      "\"errors\":%s}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(*seed),
      traced ? "true" : "false", json_figures(r.host).c_str(),
      json_figures(r.det).c_str(), json_series(r.apps).c_str(),
      json_series(r.phases).c_str(), json_figures(r.allocs).c_str(),
      json_figures(r.layer).c_str(), checks.c_str(), errors.c_str());
  return 0;
}
