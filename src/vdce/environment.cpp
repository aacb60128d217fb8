#include "vdce/environment.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "econ/econ.hpp"
#include "sched/strategy.hpp"
#include "sched/support.hpp"

namespace vdce {

VdceEnvironment::VdceEnvironment(net::Topology topology,
                                 EnvironmentOptions options)
    : topology_(std::move(topology)),
      options_(options),
      obs_(options.metrics, options.trace, options.flight, options.health),
      engine_(options.sim_kernel),
      fabric_(engine_, topology_),
      admission_(options.tenancy) {
  set_log_level(options_.log_level);
  fabric_.set_observability(&obs_);
  tasklib::register_standard_libraries(registry_);
}

VdceEnvironment::~VdceEnvironment() {
  for (auto& agent : agents_) agent->stop();
}

common::Status VdceEnvironment::try_bring_up() {
  if (up_) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "bring_up(): environment is already up"};
  }
  if (common::Status plan_ok = options_.faults.validate(); !plan_ok.ok()) {
    return plan_ok;
  }
  // Fail fast on a default policy naming an unregistered strategy — a typo
  // here must not silently fall back to the VDCE default at schedule time.
  if (common::Status policy_ok = sched::validate_policy(options_.scheduling);
      !policy_ok.ok()) {
    return policy_ok;
  }
  up_ = true;

  // One repository per site, populated with its hosts and the standard
  // task libraries (the paper's site bring-up registration).
  std::vector<db::SiteRepository*> repo_ptrs;
  for (const net::Site& site : topology_.sites()) {
    auto repo = std::make_unique<db::SiteRepository>(site.id);
    repo->register_site_hosts(topology_);
    registry_.seed_database(repo->tasks());
    repo_ptrs.push_back(repo.get());
    repos_.push_back(std::move(repo));
  }

  core_ = std::make_unique<runtime::RuntimeCore>(
      engine_, fabric_, topology_, std::move(repo_ptrs), options_.runtime);
  core_->set_observability(&obs_);

  // Describe every host track so exporters (Chrome trace, vdce-inspect) can
  // group rows by site and label them with real host names.
  std::vector<obs::TrackInfo> tracks;
  tracks.reserve(topology_.hosts().size());
  for (const net::Host& host : topology_.hosts()) {
    tracks.push_back(obs::TrackInfo{host.id.value(), host.site.value(),
                                    host.spec.name});
  }
  obs_.trace().set_tracks(std::move(tracks));

  // Health plane before the daemons: rules and series registered here, in
  // deterministic topology order, so the monitor daemons' cached lookups
  // (and the trace's series indices) never depend on agent start order.
  setup_health_plane();

  for (const net::Host& host : topology_.hosts()) {
    agents_.push_back(std::make_unique<runtime::HostAgent>(*core_, host.id));
  }
  for (auto& agent : agents_) agent->start();

  // Wire every Site Manager's I/O service to the user object store, so
  // output files (Fig. 1's vector_X.dat) land back in the user's space.
  for (auto& agent : agents_) {
    if (runtime::SiteManager* manager = agent->site_manager()) {
      manager->set_output_sink([this](const std::string& path,
                                      tasklib::Value value, double bytes) {
        store_.put(path, std::move(value), bytes);
      });
    }
  }

  if (options_.background_load) {
    load_generator_ = std::make_unique<runtime::BackgroundLoadGenerator>(
        engine_, topology_, core_->rng().fork(), options_.load);
    load_generator_->start();
  }

  // Arm the fault plan last, so injected events find a fully wired runtime.
  if (!options_.faults.empty()) {
    chaos_ = std::make_unique<chaos::ChaosInjector>(engine_, topology_, &obs_,
                                                    options_.faults);
    if (common::Status armed = chaos_->arm(); !armed.ok()) {
      chaos_.reset();
      obs_.flight().record(engine_.now(), obs::FlightCode::kBringUpFailed);
      dump_postmortem();
      return armed;
    }
    fabric_.set_fault_interceptor(chaos_.get());
    core_->set_monitor_mute(
        [this](common::HostId h) { return chaos_->monitor_muted(h); });
  }

  // Health probes and rule evaluation start once everything else is wired,
  // so the first tick sees the same world an injected fault would.
  if (obs_.health_on()) {
    for (auto& agent : agents_) {
      agent->add_extension([this](const net::Message& message) {
        return handle_health_message(message);
      });
    }
    health_timer_ = engine_.every(options_.health.cadence,
                                  [this] { health_tick(); });
  }
  return common::Status::success();
}

void VdceEnvironment::setup_health_plane() {
  if (!obs_.health_on()) return;
  obs::health::HealthPlane& hp = obs_.health();
  const common::SimTime now = engine_.now();
  hp.start(now);

  if (options_.health.default_rules) {
    obs::health::DefaultRuleParams params;
    params.monitor_period = options_.runtime.monitor_period;
    params.cadence = options_.health.cadence;
    params.sensitivity = options_.health.sensitivity;
    params.overload_threshold = options_.runtime.overload_threshold;
    for (obs::health::HealthRule& rule : obs::health::default_rules(params)) {
      hp.add_rule(std::move(rule), now);
    }
  }
  if (options_.health.default_rules) {
    // Any displaced reservation window is an SLO event: the committed
    // machines changed under a booking (docs/RESERVATIONS.md).  The series
    // is a cumulative counter fed by the site managers' recovery path, so
    // the alert fires on the first displacement and stays active.
    obs::health::HealthRule displaced;
    displaced.id = "reservation-displaced";
    displaced.kind = obs::health::RuleKind::kThreshold;
    displaced.metric = obs::health::kReservationDisplaced;
    displaced.threshold = 0.0;
    displaced.above = true;
    hp.add_rule(std::move(displaced), now);
  }
  for (const obs::health::HealthRule& rule : options_.health.rules) {
    hp.add_rule(rule, now);
  }

  // Per-host sample series (monitor daemons cache these at start()).
  obs::health::SeriesKey key;
  for (const net::Host& host : topology_.hosts()) {
    key = obs::health::SeriesKey{};
    key.host = static_cast<std::int64_t>(host.id.value());
    key.site = static_cast<std::int64_t>(host.site.value());
    key.metric = obs::health::kHostLoad;
    (void)hp.series(key, now);
    key.metric = obs::health::kHostMem;
    (void)hp.series(key, now);
  }
  // One RTT series per unordered site pair, fed by the cadence probes.
  const std::size_t site_count = topology_.site_count();
  for (std::size_t a = 0; a + 1 < site_count; ++a) {
    for (std::size_t b = a + 1; b < site_count; ++b) {
      key = obs::health::SeriesKey{};
      key.metric = obs::health::kLinkRtt;
      key.link_a = static_cast<std::int64_t>(a);
      key.link_b = static_cast<std::int64_t>(b);
      (void)hp.series(key, now);
    }
  }
  // Control-plane series, cached for the tick's zero-lookup feeds.
  key = obs::health::SeriesKey{};
  key.metric = obs::health::kQueueDepth;
  queue_series_ = hp.series(key, now);
  key.metric = obs::health::kSchedSeconds;
  sched_series_ = hp.series(key, now);
  key.metric = obs::health::kRejections;
  (void)hp.series(key, now);
  // Wall-clock series: visible in env.health() and --series, excluded from
  // rules, tracing, and replay (same contract as metrics wall gauges).
  key = obs::health::SeriesKey{};
  key.metric = obs::health::kEventsPerSec;
  events_series_ = hp.wall_series(key, now);
}

void VdceEnvironment::health_tick() {
  obs::health::HealthPlane& hp = obs_.health();
  const common::SimTime now = engine_.now();
  // Active inter-site probes: monitor feeds are in-process per host, so a
  // partition starves nothing on its own — the probe RTT series is what the
  // link staleness/latency rules watch.
  ++probe_seq_;
  const std::size_t site_count = topology_.site_count();
  for (std::size_t a = 0; a + 1 < site_count; ++a) {
    for (std::size_t b = a + 1; b < site_count; ++b) {
      obs::health::HealthProbe probe;
      probe.site_a = static_cast<std::int64_t>(a);
      probe.site_b = static_cast<std::int64_t>(b);
      probe.seq = probe_seq_;
      probe.sent = now;
      (void)fabric_.send(net::Message{
          topology_.site(common::SiteId(static_cast<std::uint32_t>(a))).server,
          topology_.site(common::SiteId(static_cast<std::uint32_t>(b))).server,
          "health.probe", 64.0, std::any(probe)});
    }
  }
  hp.observe(queue_series_, now,
             static_cast<double>(admission_.queue_depth()));
  hp.observe(events_series_, now, engine_.events_per_sec());
  hp.evaluate(now);
}

bool VdceEnvironment::handle_health_message(const net::Message& message) {
  if (!common::starts_with(message.type, "health.")) return false;
  if (message.type == "health.probe") {
    // Bounce the payload back unchanged; the reply's arrival time measures
    // the round trip.
    (void)fabric_.send(net::Message{message.dst, message.src,
                                    "health.probe_reply", 64.0,
                                    message.payload});
  } else if (message.type == "health.probe_reply") {
    const auto& probe =
        std::any_cast<const obs::health::HealthProbe&>(message.payload);
    obs::health::SeriesKey key;
    key.metric = obs::health::kLinkRtt;
    key.link_a = probe.site_a;
    key.link_b = probe.site_b;
    obs::health::HealthPlane& hp = obs_.health();
    hp.observe(hp.find_series(key), engine_.now(),
               engine_.now() - probe.sent);
  }
  return true;
}

common::Expected<std::reference_wrapper<db::SiteRepository>>
VdceEnvironment::try_repo(common::SiteId site) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "repo(): environment not brought up"};
  }
  if (site.value() >= repos_.size()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "repo(): unknown site id " +
                             std::to_string(site.value()) + " (environment has " +
                             std::to_string(repos_.size()) + " sites)"};
  }
  return std::ref(*repos_[site.value()]);
}

common::Expected<std::reference_wrapper<runtime::SiteManager>>
VdceEnvironment::try_site_manager(common::SiteId site) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "site_manager(): environment not brought up"};
  }
  if (site.value() >= repos_.size()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "site_manager(): unknown site id " +
                             std::to_string(site.value())};
  }
  common::HostId server = topology_.site(site).server;
  runtime::SiteManager* manager = agents_.at(server.value())->site_manager();
  if (manager == nullptr) {
    return common::Error{common::ErrorCode::kInternal,
                         "site_manager(): server host " +
                             std::to_string(server.value()) +
                             " runs no Site Manager"};
  }
  return std::ref(*manager);
}

namespace {

[[noreturn]] void accessor_abort(const common::Error& error) {
  std::fprintf(stderr, "VdceEnvironment: %s\n", error.to_string().c_str());
  std::abort();
}

}  // namespace

void VdceEnvironment::bring_up() {
  auto st = try_bring_up();
  if (!st.ok()) accessor_abort(st.error());
}

db::SiteRepository& VdceEnvironment::repo(common::SiteId site) {
  auto r = try_repo(site);
  if (!r) accessor_abort(r.error());
  return r->get();
}

runtime::SiteManager& VdceEnvironment::site_manager(common::SiteId site) {
  auto r = try_site_manager(site);
  if (!r) accessor_abort(r.error());
  return r->get();
}

obs::MetricsRegistry& VdceEnvironment::metrics() {
  obs::MetricsRegistry& m = obs_.metrics();
  m.gauge("sim.now").set(engine_.now());
  m.gauge("sim.events_fired").set(static_cast<double>(engine_.total_fired()));
  m.gauge("sim.events_scheduled")
      .set(static_cast<double>(engine_.total_scheduled()));
  m.gauge("sim.max_queue_depth")
      .set(static_cast<double>(engine_.max_queue_depth()));
  m.gauge("sim.pending_events")
      .set(static_cast<double>(engine_.pending_events()));
  // Event-kernel health: throughput (events fired per wall-clock second
  // spent inside the run loops) and arena occupancy (docs/SCALING.md).
  // Throughput is wall-clock-derived, so it lives in the wall_gauge family
  // that the byte-identical to_jsonl() export omits.
  m.wall_gauge("sim.events_per_sec").set(engine_.events_per_sec());
  m.gauge("sim.arena_capacity")
      .set(static_cast<double>(engine_.arena_capacity()));
  m.gauge("sim.arena_live").set(static_cast<double>(engine_.arena_live()));
  m.gauge("sim.arena_high_water")
      .set(static_cast<double>(engine_.arena_high_water()));
  m.gauge("sim.timer_capacity")
      .set(static_cast<double>(engine_.timer_capacity()));
  return m;
}

runtime::BackgroundLoadGenerator& VdceEnvironment::background() {
  assert(load_generator_ != nullptr &&
         "enable EnvironmentOptions::background_load");
  return *load_generator_;
}

runtime::RuntimeCore& VdceEnvironment::core() {
  assert(up_);
  return *core_;
}

dsm::DsmRuntime& VdceEnvironment::enable_dsm() {
  assert(up_);
  if (!dsm_) {
    std::vector<common::HostId> hosts;
    for (const net::Host& h : topology_.hosts()) hosts.push_back(h.id);
    dsm_ = std::make_unique<dsm::DsmRuntime>(fabric_, std::move(hosts));
    for (auto& agent : agents_) {
      agent->add_extension([this](const net::Message& message) {
        if (!common::starts_with(message.type, "dsm.")) return false;
        dsm_->handle(message);
        return true;
      });
    }
  }
  return *dsm_;
}

common::Status VdceEnvironment::try_add_user(const std::string& name,
                                             const std::string& password,
                                             int priority,
                                             db::AccessDomain domain) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "add_user(): environment not brought up"};
  }
  for (auto& repo : repos_) {
    auto added = repo->users().add_user(name, password, priority, domain);
    if (!added.has_value()) return added.error();
  }
  return common::Status::success();
}

void VdceEnvironment::add_user(const std::string& name,
                               const std::string& password, int priority,
                               db::AccessDomain domain) {
  auto st = try_add_user(name, password, priority, domain);
  if (!st.ok()) accessor_abort(st.error());
}

common::Expected<Session> VdceEnvironment::login(common::SiteId site,
                                                 const std::string& name,
                                                 const std::string& password) {
  auto site_repo = try_repo(site);
  if (!site_repo) return site_repo.error();
  auto account = site_repo->get().users().authenticate(name, password);
  if (!account) return account.error();
  return Session{site, *account};
}

common::Status VdceEnvironment::drive_until(const bool& flag) {
  const common::SimTime deadline = engine_.now() + options_.sync_timeout;
  while (!flag) {
    if (engine_.empty()) {
      return common::Error{common::ErrorCode::kInternal,
                           "simulation drained with operation incomplete"};
    }
    if (engine_.now() > deadline) {
      return common::Error{common::ErrorCode::kTimeout,
                           "operation exceeded sync timeout"};
    }
    // Small step quantum so the clock stops close to the completion event
    // (the daemons' periodic timers would otherwise drag time forward).
    engine_.run_steps(8);
  }
  return common::Status::success();
}

common::Status VdceEnvironment::validate_tasks(const afg::Afg& graph,
                                               const Session& session) {
  auto site_repo = try_repo(session.site);
  if (!site_repo) return site_repo.error();
  const db::TaskPerformanceDb& tasks = site_repo->get().tasks();
  for (const afg::TaskNode& node : graph.tasks()) {
    if (tasks.contains(node.task_name)) continue;
    if (registry_.find(node.task_name).has_value()) continue;
    return common::Error{
        common::ErrorCode::kNotFound,
        "task \"" + node.task_name + "\" (instance \"" + node.instance_name +
            "\") is not registered in site " +
            std::to_string(session.site.value()) +
            "'s task library or the kernel registry; register the task "
            "before running the application"};
  }
  return common::Status::success();
}

common::Expected<sched::ResourceAllocationTable> VdceEnvironment::schedule(
    const afg::Afg& graph, const Session& session,
    sched::SchedulingPolicy options) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "schedule(): environment not brought up"};
  }
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  if (auto tasks_ok = validate_tasks(graph, session); !tasks_ok.ok()) {
    return tasks_ok.error();
  }

  // Clip the candidate set to what this user may touch.
  options.access = session.account.domain;
  // An empty per-call strategy inherits the environment default; a named
  // one must exist in the registry — fail fast with the known-name list.
  if (options.strategy.empty()) options.strategy = options_.scheduling.strategy;
  if (auto policy_ok = sched::validate_policy(options); !policy_ok.ok()) {
    return policy_ok.error();
  }

  common::AppId app(next_app_++);
  bool done = false;
  common::Expected<sched::ResourceAllocationTable> result =
      common::Error{common::ErrorCode::kInternal, "scheduling did not finish"};
  site_manager(session.site)
      .schedule_application(
          app, std::make_shared<const afg::Afg>(graph), options,
          [&done, &result](common::Expected<sched::ResourceAllocationTable> r) {
            result = std::move(r);
            done = true;
          });
  auto st = drive_until(done);
  if (!st.ok()) return st.error();
  return result;
}

common::Expected<runtime::ExecutionReport> VdceEnvironment::run_application(
    const afg::Afg& graph, const Session& session, RunOptions options) {
  auto handle = submit_application(graph, session, options);
  if (!handle) return handle.error();
  return wait(*handle);
}

// ---- advance reservations (docs/RESERVATIONS.md) ----------------------------

common::Expected<ReservationTicket> VdceEnvironment::reserve(
    const Session& session, const ReservationRequest& request) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "reserve(): environment not brought up"};
  }
  if (request.hosts.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "reserve(): a reservation must name at least one host"};
  }
  if (request.end <= request.start) {
    return common::Error{
        common::ErrorCode::kInvalidArgument,
        "reserve(): window end " + common::format_double(request.end, 3) +
            "s must be after start " + common::format_double(request.start, 3) +
            "s"};
  }
  if (request.start < engine_.now()) {
    return common::Error{
        common::ErrorCode::kInvalidArgument,
        "reserve(): window start " + common::format_double(request.start, 3) +
            "s is in the past (now " +
            common::format_double(engine_.now(), 3) + "s)"};
  }
  for (common::HostId host : request.hosts) {
    if (!host.valid() || host.value() >= topology_.hosts().size()) {
      return common::Error{common::ErrorCode::kNotFound,
                           "reserve(): host " +
                               (host.valid() ? std::to_string(host.value())
                                             : std::string("<invalid>")) +
                               " does not exist in this topology"};
    }
  }
  if (request.link_fraction > 0.0) {
    if (request.link_fraction > 1.0) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "reserve(): link_fraction must be in (0, 1]"};
    }
    if (!request.link_src.valid() || !request.link_dst.valid() ||
        request.link_src.value() >= topology_.hosts().size() ||
        request.link_dst.value() >= topology_.hosts().size()) {
      return common::Error{
          common::ErrorCode::kNotFound,
          "reserve(): link endpoints must name existing hosts"};
    }
  }
  // A stale or forged session is a typed kNotFound, exactly as at submit.
  auto account = repo(session.site).users().find(session.account.user_name);
  if (!account) return account.error();

  sched::Window window;
  window.user = account->user_name;
  window.start = request.start;
  window.end = request.end;
  window.hosts = request.hosts;
  if (request.link_fraction > 0.0) {
    window.link_src = request.link_src;
    window.link_dst = request.link_dst;
    window.link_fraction = request.link_fraction;
  }
  auto booked = core_->reservations().book(std::move(window));
  if (!booked) return booked.error();  // kReservationConflict, entity named
  if (auto quota = admission_.reserve_booking(account->user_name);
      !quota.ok()) {
    (void)core_->reservations().cancel(*booked);
    return quota.error();
  }

  if (obs_.trace_on()) {
    obs_.trace().instant(
        "reservation", "reservation.commit", engine_.now(), obs::kControlTrack,
        {obs::arg("booking", *booked), obs::arg("user", account->user_name),
         obs::arg("start", request.start), obs::arg("end", request.end),
         obs::arg("hosts", std::uint64_t{request.hosts.size()})});
  }
  if (obs_.metrics_on()) {
    obs_.metrics().counter("reservation.bookings").add();
  }
  return ReservationTicket{*booked};
}

common::Status VdceEnvironment::cancel_reservation(const Session& session,
                                                   ReservationTicket ticket) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "cancel_reservation(): environment not brought up"};
  }
  const sched::Window* window = core_->reservations().window(ticket.id);
  if (window == nullptr) {
    return common::Error{common::ErrorCode::kNotFound,
                         "cancel_reservation(): unknown or already-released "
                         "booking " +
                             std::to_string(ticket.id)};
  }
  if (window->user != session.account.user_name) {
    return common::Error{common::ErrorCode::kPermissionDenied,
                         "cancel_reservation(): booking " +
                             std::to_string(ticket.id) + " belongs to user " +
                             window->user};
  }
  const std::string user = window->user;
  if (auto st = core_->reservations().cancel(ticket.id); !st.ok()) return st;
  admission_.release_booking(user);
  if (obs_.trace_on()) {
    obs_.trace().instant("reservation", "reservation.cancel", engine_.now(),
                         obs::kControlTrack,
                         {obs::arg("booking", ticket.id),
                          obs::arg("user", user)});
  }
  if (obs_.metrics_on()) {
    obs_.metrics().counter("reservation.cancellations").add();
  }
  return common::Status::success();
}

const sched::Window* VdceEnvironment::reservation_window(
    ReservationTicket ticket) const {
  if (!up_ || core_ == nullptr) return nullptr;
  return core_->reservations().window(ticket.id);
}

// ---- multi-tenant submission pipeline (docs/TENANCY.md) ---------------------

common::Expected<AppHandle> VdceEnvironment::submit_application(
    const afg::Afg& graph, const Session& session, RunOptions options) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "submit_application(): environment not brought up"};
  }
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  if (auto tasks_ok = validate_tasks(graph, session); !tasks_ok.ok()) {
    return tasks_ok.error();
  }
  // The submitting user must still exist at the session site — a stale or
  // forged session is a typed kNotFound, not a deep runtime failure.
  auto account = repo(session.site).users().find(session.account.user_name);
  if (!account) return account.error();

  // A submission carrying a reservation ticket must redeem a live window it
  // owns — typed rejections here, before the queue ever sees it.
  if (options.reservation.valid()) {
    const sched::Window* window =
        core_->reservations().window(options.reservation.id);
    if (window == nullptr) {
      return common::Error{common::ErrorCode::kNotFound,
                           "submit_application(): reservation ticket " +
                               std::to_string(options.reservation.id) +
                               " is unknown or already released"};
    }
    if (window->user != account->user_name) {
      return common::Error{common::ErrorCode::kPermissionDenied,
                           "submit_application(): reservation ticket " +
                               std::to_string(options.reservation.id) +
                               " belongs to user " + window->user};
    }
    if (window->end <= engine_.now()) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "submit_application(): reservation window [" +
                               common::format_double(window->start, 3) + "s, " +
                               common::format_double(window->end, 3) +
                               "s) has already closed"};
    }
  }

  // Resolve the effective policy before admission: an empty per-run
  // strategy inherits the environment default, and unknown names are a
  // typed kInvalidArgument here — never a silent fallback at schedule time.
  if (options.sched.strategy.empty()) {
    options.sched.strategy = options_.scheduling.strategy;
  }
  if (auto policy_ok = sched::validate_policy(options.sched); !policy_ok.ok()) {
    return policy_ok.error();
  }
  // Economy (docs/ECONOMY.md): the user-level constraints travel inside the
  // scheduling policy so the cost-aware strategies (and any future ones)
  // can optimise against them.  The legacy kill-switch leaves both at zero,
  // keeping the policy — and with it every strategy decision — byte-
  // identical to the pre-economy pipeline.
  if (!options_.runtime.legacy_no_economy) {
    options.sched.deadline = options.deadline;
    options.sched.budget = options.budget;
  }

  AppHandle handle{++next_handle_};
  if (auto st = admission_.enqueue(handle.id, account->user_name,
                                   account->priority);
      !st.ok()) {
    if (obs_.health_on()) {
      obs::health::SeriesKey key;
      key.metric = obs::health::kRejections;
      obs_.health().observe_delta(key, engine_.now());
    }
    return st.error();
  }

  auto slot = std::make_unique<SubmissionSlot>();
  slot->handle = handle;
  slot->session = session;
  slot->graph = std::make_shared<const afg::Afg>(graph);
  slot->options = options;
  slot->options.sched.access = session.account.domain;
  slot->enqueued = engine_.now();
  slots_.emplace(handle.id, std::move(slot));
  ++active_submissions_;

  if (obs_.trace_on()) {
    obs_.trace().instant("tenancy", "tenancy.submit", engine_.now(),
                         obs::kControlTrack,
                         {obs::arg("handle", handle.id),
                          obs::arg("user", account->user_name),
                          obs::arg("app_name", graph.name()),
                          obs::arg("queued",
                                   std::uint64_t{admission_.queue_depth()})});
  }
  if (obs_.metrics_on()) {
    obs_.metrics().counter("tenancy.submissions").add();
  }

  pump_submissions();
  return handle;
}

void VdceEnvironment::pump_submissions() {
  // Retry pass: every completion starts one, so the pass number is the
  // completion count.  A deferred submission retries once per pass, one
  // round at a time, and only when its round could succeed; each retry
  // then sees the hosts the previous one took.
  const auto may_retry = [this](std::uint64_t handle) {
    const SubmissionSlot& slot = *slots_.at(handle);
    return retry_round_ == 0 &&
           slot.round_pass != admission_.stats().completed &&
           has_free_candidate(slot);
  };
  while (auto next = admission_.admit_next(may_retry)) {
    SubmissionSlot& slot = *slots_.at(*next);
    const bool retry = slot.state == AppState::kDeferred;
    slot.round_pass = admission_.stats().completed;
    slot.admitted = engine_.now();
    slot.released = slot.admitted;
    const std::uint64_t booking = slot.options.reservation.id;
    if (booking != 0 && !options_.runtime.legacy_instant_reservations) {
      const sched::Window* window = core_->reservations().window(booking);
      if (window == nullptr) {
        // Cancelled between submit and admission.
        finalize_submission(
            slot, common::Error{common::ErrorCode::kNotFound,
                                "reservation booking " +
                                    std::to_string(booking) +
                                    " was cancelled before admission"});
        continue;
      }
      if (window->start > engine_.now()) {
        // Park until the committed window opens; the timer un-parks it.
        slot.state = AppState::kReserved;
        engine_.post_at(window->start, [this, handle = slot.handle.id] {
          release_reserved(handle);
        });
        continue;
      }
    }
    if (retry) retry_round_ = slot.handle.id;
    begin_scheduling(slot);
  }
}

bool VdceEnvironment::has_free_candidate(const SubmissionSlot& slot) const {
  sched::SchedulerContext ctx;
  ctx.topology = &topology_;
  ctx.local_site = slot.session.site;
  ctx.k_nearest = options_.runtime.k_nearest;
  const sched::ReservationTable& held = core_->reservations();
  for (common::SiteId site :
       sched::candidate_site_set(ctx, slot.options.sched)) {
    for (common::HostId host : topology_.site(site).hosts) {
      if (!held.holder(host).valid()) return true;
    }
  }
  return false;
}

void VdceEnvironment::begin_scheduling(SubmissionSlot& slot) {
  slot.state = AppState::kScheduling;
  slot.sched_app = common::AppId(next_app_++);
  const std::uint64_t booking = slot.options.reservation.id;
  if (booking != 0 && !options_.runtime.legacy_instant_reservations) {
    // Bind the booking to this round's AppId so the site schedulers treat
    // the window as the owner's (candidates restricted to the booked
    // machines, own window never blocks).
    core_->reservations().bind_owner(booking, slot.sched_app);
  }
  site_manager(slot.session.site)
      .schedule_application(
          slot.sched_app, slot.graph, slot.options.sched,
          [this, handle = slot.handle.id](
              common::Expected<sched::ResourceAllocationTable> table) {
            on_scheduled(handle, std::move(table));
          });
}

void VdceEnvironment::release_reserved(std::uint64_t handle) {
  auto it = slots_.find(handle);
  if (it == slots_.end()) return;
  SubmissionSlot& slot = *it->second;
  if (slot.terminal || slot.state != AppState::kReserved) return;
  slot.released = engine_.now();
  if (obs_.health_on()) {
    obs::health::SeriesKey key;
    key.metric = obs::health::kReservationWait;
    obs_.health().observe_delta(key, engine_.now(),
                                slot.released - slot.admitted);
  }
  begin_scheduling(slot);
}

void VdceEnvironment::on_scheduled(
    std::uint64_t handle, common::Expected<sched::ResourceAllocationTable> table) {
  auto it = slots_.find(handle);
  if (it == slots_.end()) return;
  SubmissionSlot& slot = *it->second;
  // A retry round that ends, with success or failure, lets the retry pass
  // move on to the next deferred submission (finalize_submission pumps by
  // itself).
  const bool retry_ended = retry_round_ == handle;
  if (retry_ended) retry_round_ = 0;
  // Measured from released, not admitted: a reserved submission's parked
  // wait is its own phase, not scheduling time.  released == admitted for
  // every other run.
  slot.scheduling_time = engine_.now() - slot.released;
  obs_.health().observe(sched_series_, engine_.now(), slot.scheduling_time);

  if (!table) {
    if (table.error().code == common::ErrorCode::kNoFeasibleResource &&
        core_->reservations().any_other(slot.sched_app)) {
      // Machines exist but concurrent applications hold them: re-queue and
      // retry in the next retry pass.  At least one other application is
      // executing (reservations imply it), so a completion — and with it
      // a new pass — is guaranteed.
      slot.state = AppState::kDeferred;
      admission_.defer(handle);
      if (obs_.trace_on()) {
        obs_.trace().instant("tenancy", "tenancy.defer", engine_.now(),
                             obs::kControlTrack,
                             {obs::arg("handle", handle),
                              obs::arg("app_name", slot.graph->name())});
      }
      if (obs_.metrics_on()) {
        obs_.metrics().counter("tenancy.deferrals").add();
      }
      if (retry_ended) pump_submissions();
      return;
    }
    finalize_submission(slot, table.error());
    return;
  }

  const RunOptions& run = slot.options;
  if (run.enforce_admission && run.deadline > 0.0 &&
      table->schedule_length > run.deadline) {
    finalize_submission(
        slot, common::Error{
                  common::ErrorCode::kNoFeasibleResource,
                  "admission rejected: estimated schedule length " +
                      common::format_double(table->schedule_length, 3) +
                      "s exceeds the " +
                      common::format_double(run.deadline, 3) + "s deadline"});
    return;
  }
  // Economy admission gate (docs/ECONOMY.md): a positive budget is a hard
  // constraint, enforced unconditionally (unlike the deadline QoS check
  // above).  The quote charged here — predicted CPU-seconds at host prices
  // plus edge bytes at link prices — is the same estimate recovery
  // re-placement and the final report use, so an admitted run satisfies
  // spend() <= budget by construction.  Typed kBudgetExceeded, not
  // kNoFeasibleResource: the contention-deferral path above must not retry
  // a submission that no amount of waiting can make affordable.
  if (!options_.runtime.legacy_no_economy && run.budget > 0.0) {
    const econ::SpendBreakdown quote = econ::estimate_spend(
        *slot.graph, *table, topology_, options_.runtime.prices);
    if (quote.total() > run.budget) {
      if (obs_.metrics_on()) {
        obs_.metrics().counter("econ.budget_rejections").add();
      }
      finalize_submission(
          slot,
          common::Error{common::ErrorCode::kBudgetExceeded,
                        "admission rejected: quoted spend " +
                            common::format_double(quote.total(), 3) +
                            " G$ exceeds the " +
                            common::format_double(run.budget, 3) +
                            " G$ budget"});
      return;
    }
  }

  auto resolved = resolve_app_resources(*slot.graph, slot.session, run);
  if (!resolved) {
    finalize_submission(slot, resolved.error());
    return;
  }
  slot.exec_app = common::AppId(next_app_++);
  slot.state = AppState::kExecuting;
  if (slot.options.reservation.valid() &&
      !options_.runtime.legacy_instant_reservations) {
    // Re-bind to the execution's AppId: recovery re-placement checks the
    // window table against the executing app, not the scheduling round.
    core_->reservations().bind_owner(slot.options.reservation.id,
                                     slot.exec_app);
  }
  site_manager(slot.session.site)
      .execute_application(slot.exec_app, *slot.graph, std::move(*table),
                           std::move(resolved->perf),
                           std::move(resolved->kernels),
                           std::move(resolved->initial),
                           [this, handle](runtime::ExecutionReport report) {
                             on_executed(handle, std::move(report));
                           },
                           run.budget);
  if (retry_ended) pump_submissions();
}

void VdceEnvironment::on_executed(std::uint64_t handle,
                                  runtime::ExecutionReport report) {
  auto it = slots_.find(handle);
  if (it == slots_.end()) return;
  SubmissionSlot& slot = *it->second;
  report.scheduling_time = slot.scheduling_time;
  report.deadline = slot.options.deadline;
  report.enqueued = slot.enqueued;
  report.admitted = slot.admitted;
  report.released = std::max(slot.released, slot.admitted);
  // Contention span only when the submission actually waited behind other
  // tenants — a solo run's trace stays byte-identical to the pre-tenancy
  // pipeline's.
  if (obs_.trace_on() && slot.admitted > slot.enqueued) {
    obs_.trace().span("app", "app.contention", slot.enqueued, slot.admitted,
                      obs::kControlTrack,
                      {obs::arg("app", report.app.value()),
                       obs::arg("user", slot.session.account.user_name)},
                      obs::Causal{.app = report.app.value()});
  }
  if (obs_.metrics_on() && slot.admitted > slot.enqueued) {
    obs_.metrics()
        .histogram("tenancy.contention_seconds")
        .add(slot.admitted - slot.enqueued);
  }
  // Reservation span only when the submission actually parked for a window
  // — a ticketless run's trace stays byte-identical to the pre-reservation
  // pipeline's (the differential suite pins this).
  if (obs_.trace_on() && slot.released > slot.admitted) {
    obs_.trace().span("app", "app.reservation", slot.admitted, slot.released,
                      obs::kControlTrack,
                      {obs::arg("app", report.app.value()),
                       obs::arg("user", slot.session.account.user_name),
                       obs::arg("booking", slot.options.reservation.id)},
                      obs::Causal{.app = report.app.value()});
  }
  if (obs_.metrics_on() && slot.released > slot.admitted) {
    obs_.metrics()
        .histogram("reservation.wait_seconds")
        .add(slot.released - slot.admitted);
  }
  if (!report.success) {
    obs_.flight().record(engine_.now(), obs::FlightCode::kRunFailed,
                         obs::kControlTrack, report.app.value());
    dump_postmortem();
  }
  finalize_submission(slot, std::move(report));
}

void VdceEnvironment::finalize_submission(
    SubmissionSlot& slot, common::Expected<runtime::ExecutionReport> result) {
  // Surface the health alerts that fired while this submission was in
  // flight — the run's own SLO weather report.
  if (result.has_value() && obs_.health_on()) {
    for (const obs::health::Alert& alert : obs_.health().alerts()) {
      if (alert.fired >= slot.enqueued) result->alerts.push_back(alert);
    }
  }
  slot.result = std::move(result);
  slot.state = AppState::kFinished;
  slot.terminal = true;
  admission_.complete(slot.handle.id);
  // A reservation is spent by its run: release the remaining window (more
  // room for backfill — the no-delay invariant only ever gains) and free
  // the user's booking-quota share.  A later cancel_reservation() on the
  // spent ticket is a clean kNotFound, never a double release.
  if (slot.options.reservation.valid() &&
      !options_.runtime.legacy_instant_reservations &&
      core_->reservations().window(slot.options.reservation.id) != nullptr) {
    (void)core_->reservations().cancel(slot.options.reservation.id);
    admission_.release_booking(slot.session.account.user_name);
  }
  --active_submissions_;
  // A freed slot (and freed reservations) may unblock queued or deferred
  // submissions: the completion starts a new retry pass.
  pump_submissions();
}

common::Expected<runtime::ExecutionReport> VdceEnvironment::wait(
    AppHandle handle) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "wait(): environment not brought up"};
  }
  auto it = slots_.find(handle.id);
  if (it == slots_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "wait(): unknown application handle " +
                             std::to_string(handle.id)};
  }
  SubmissionSlot& slot = *it->second;
  if (!slot.terminal) {
    if (auto st = drive_until(slot.terminal); !st.ok()) {
      obs_.flight().record(engine_.now(), obs::FlightCode::kRunFailed,
                           obs::kControlTrack, slot.exec_app.value());
      dump_postmortem();
      return st.error();
    }
  }
  return slot.result;
}

common::Status VdceEnvironment::drain() {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "drain(): environment not brought up"};
  }
  const common::SimTime deadline = engine_.now() + options_.sync_timeout;
  while (active_submissions_ > 0) {
    if (engine_.empty()) {
      return common::Error{common::ErrorCode::kInternal,
                           "simulation drained with operation incomplete"};
    }
    if (engine_.now() > deadline) {
      return common::Error{common::ErrorCode::kTimeout,
                           "operation exceeded sync timeout"};
    }
    engine_.run_steps(8);
  }
  return common::Status::success();
}

common::Expected<runtime::ExecutionReport> VdceEnvironment::report(
    AppHandle handle) const {
  auto it = slots_.find(handle.id);
  if (it == slots_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "report(): unknown application handle " +
                             std::to_string(handle.id)};
  }
  if (!it->second->terminal) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "report(): application " + std::to_string(handle.id) +
                             " is still in flight; wait() or drain() first"};
  }
  return it->second->result;
}

common::Expected<AppState> VdceEnvironment::app_state(AppHandle handle) const {
  auto it = slots_.find(handle.id);
  if (it == slots_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "app_state(): unknown application handle " +
                             std::to_string(handle.id)};
  }
  return it->second->state;
}

common::Expected<runtime::ExecutionReport> VdceEnvironment::execute_with_table(
    const afg::Afg& graph, sched::ResourceAllocationTable table,
    const Session& session, RunOptions options) {
  return execute_plan(graph, std::move(table), session, options);
}

common::Expected<VdceEnvironment::ResolvedApp>
VdceEnvironment::resolve_app_resources(const afg::Afg& graph,
                                       const Session& session,
                                       const RunOptions& options) {
  ResolvedApp resolved;

  // Resolve per-task performance records and kernels.
  resolved.kernels.resize(graph.task_count());
  resolved.perf.reserve(graph.task_count());
  for (const afg::TaskNode& node : graph.tasks()) {
    auto record = sched::resolve_perf(node, repo(session.site).tasks());
    if (!record) return record.error();
    resolved.perf.push_back(std::move(*record));
    if (options.real_kernels) {
      auto impl = registry_.find(node.task_name);
      if (impl && impl->kernel) {
        resolved.kernels[node.id.value()] = impl->kernel;
      }
    }
  }

  // Resolve non-dataflow file inputs through the I/O service's object
  // store; a missing object is fine for timing-only tasks (the transfer is
  // still charged at the declared size) but fatal when a real kernel needs
  // the value.
  for (const afg::TaskNode& node : graph.tasks()) {
    for (int port = 0; port < node.in_ports(); ++port) {
      const afg::FileSpec& f =
          node.props.inputs[static_cast<std::size_t>(port)];
      if (f.dataflow || f.path.empty()) continue;
      auto object = store_.get(f.path);
      if (object) {
        resolved.initial[node.id.value()][port] = object->value;
      } else if (options.real_kernels && resolved.kernels[node.id.value()]) {
        return common::Error{common::ErrorCode::kNotFound,
                             "input object missing from store: " + f.path +
                                 " (task " + node.instance_name + ")"};
      }
    }
  }
  return resolved;
}

common::Expected<runtime::ExecutionReport> VdceEnvironment::execute_plan(
    const afg::Afg& graph, sched::ResourceAllocationTable table,
    const Session& session, const RunOptions& options) {
  if (!up_) {
    return common::Error{common::ErrorCode::kInternal,
                         "execute(): environment not brought up"};
  }
  if (auto tasks_ok = validate_tasks(graph, session); !tasks_ok.ok()) {
    return tasks_ok.error();
  }
  auto resolved = resolve_app_resources(graph, session, options);
  if (!resolved) return resolved.error();

  common::AppId app(next_app_++);
  bool done = false;
  runtime::ExecutionReport report;
  site_manager(session.site)
      .execute_application(app, graph, std::move(table),
                           std::move(resolved->perf),
                           std::move(resolved->kernels),
                           std::move(resolved->initial),
                           [&done, &report](runtime::ExecutionReport r) {
                             report = std::move(r);
                             done = true;
                           },
                           options.budget);
  auto st = drive_until(done);
  if (!st.ok()) {
    obs_.flight().record(engine_.now(), obs::FlightCode::kRunFailed,
                         obs::kControlTrack, app.value());
    dump_postmortem();
    return st.error();
  }
  report.deadline = options.deadline;
  if (!report.success) {
    // Recovery escalated past the budget (or the run failed outright): the
    // coordinator already logged kEscalation / kAppDone(success=0); preserve
    // the recent-event ring for offline diagnosis.
    obs_.flight().record(engine_.now(), obs::FlightCode::kRunFailed,
                         obs::kControlTrack, app.value());
    dump_postmortem();
  }
  return report;
}

void VdceEnvironment::dump_postmortem() {
  obs::FlightRecorder& flight = obs_.flight();
  if (!flight.enabled() || flight.total() == 0) return;
  if (options_.flight.postmortem_path.empty()) return;
  if (common::Status written = flight.dump(options_.flight.postmortem_path);
      !written.ok()) {
    std::fprintf(stderr, "VdceEnvironment: post-mortem dump failed: %s\n",
                 written.error().to_string().c_str());
  }
}

void VdceEnvironment::run_for(common::SimDuration duration) {
  engine_.run_until(engine_.now() + duration);
}

common::Expected<std::unique_ptr<VdceEnvironment>>
VdceEnvironment::make_scale_environment(const ScaleSpec& spec) {
  net::Topology topology = scale::make_grid(spec.grid);
  auto env = std::make_unique<VdceEnvironment>(std::move(topology),
                                               spec.options);
  // Bring-up schedules a handful of daemon timers per host; reserve the
  // event heap once instead of regrowing it through the initial burst.
  env->engine().reserve_events(env->topology().host_count() * 8);
  if (common::Status up = env->try_bring_up(); !up.ok()) return up.error();
  if (!spec.admin_user.empty()) {
    if (common::Status added =
            env->try_add_user(spec.admin_user, spec.admin_password);
        !added.ok()) {
      return added.error();
    }
  }
  return env;
}

}  // namespace vdce
