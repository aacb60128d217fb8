#include "runtime/site_manager.hpp"

#include <algorithm>
#include <any>
#include <cassert>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "econ/econ.hpp"
#include "sched/host_selection.hpp"
#include "sched/strategy.hpp"

namespace vdce::runtime {

namespace {

/// Consecutive no-progress stall recoveries (resends / RAT re-multicasts)
/// before the coordinator stops repeating them until something completes.
constexpr int kMaxQuietStalls = 5;

}  // namespace

void SiteManager::start() {
  if (started_) return;
  started_ = true;
  progress_timer_ = core_.engine().every(core_.options().progress_period,
                                         [this] { progress_sweep(); });
  leader_echo_timer_ = core_.engine().every(
      core_.options().echo_period, [this] { leader_echo_tick(); },
      core_.options().echo_period * 0.75);
}

void SiteManager::stop() {
  progress_timer_.cancel();
  leader_echo_timer_.cancel();
}

void SiteManager::leader_echo_tick() {
  // Close the previous round: a leader that stayed silent is down, and with
  // it the monitoring of its whole group — mark it and recover.
  std::vector<common::HostId> leaders;
  for (const net::Group& g : core_.topology().groups_in_site(site_)) {
    if (g.leader != server_) leaders.push_back(g.leader);
  }
  if (leader_echo_outstanding_) {
    for (common::HostId leader : leaders) {
      if (leader_echo_replied_.contains(leader) ||
          leaders_reported_down_.contains(leader)) {
        continue;
      }
      leaders_reported_down_.insert(leader);
      VDCE_LOG(kInfo, "site-mgr", core_.now())
          << "group leader " << core_.topology().host(leader).spec.name
          << " failed echo round " << leader_echo_seq_;
      // Reuse the gm.host_down path: mark down, broadcast, recover apps.
      net::Message synthetic{server_, server_, msg::kGmHostDown, 0,
                             std::any(HostDownNotice{leader})};
      on_gm_host_down(synthetic);
    }
  }
  ++leader_echo_seq_;
  leader_echo_replied_.clear();
  leader_echo_outstanding_ = true;
  for (common::HostId leader : leaders) {
    (void)core_.fabric().send(net::Message{
        server_, leader, msg::kSmEcho, wire::kEcho,
        std::any(EchoPacket{server_, leader_echo_seq_})});
  }
}

void SiteManager::on_sm_echo_reply(const net::Message& message) {
  const auto& echo = std::any_cast<const EchoPacket&>(message.payload);
  if (echo.seq != leader_echo_seq_) return;
  leader_echo_replied_.insert(message.src);
  leaders_reported_down_.erase(message.src);
}

sched::SchedulerContext SiteManager::make_context(
    common::AppId scheduling_for) const {
  sched::SchedulerContext ctx;
  ctx.topology = &core_.topology();
  for (db::SiteRepository* repo : core_.repos()) ctx.repos.push_back(repo);
  ctx.predictor = &core_.predictor();
  ctx.local_site = site_;
  ctx.k_nearest = core_.options().k_nearest;
  ctx.obs = core_.obs();
  ctx.now = core_.now();
  ctx.reservations = &core_.reservations();
  ctx.reserving_app = scheduling_for;
  if (!core_.options().legacy_instant_reservations) {
    ctx.windows = &core_.reservations();
    ctx.held_booking = core_.reservations().booking_of(scheduling_for);
  }
  if (!core_.options().legacy_no_economy) {
    ctx.prices = &core_.options().prices;
  }
  return ctx;
}

void SiteManager::handle(const net::Message& message) {
  if (message.type == msg::kGmReport) {
    on_gm_report(message);
  } else if (message.type == msg::kGmHostDown) {
    on_gm_host_down(message);
  } else if (message.type == msg::kSmHostDown) {
    on_sm_host_down(message);
  } else if (message.type == msg::kSmAfg) {
    on_sm_afg(message);
  } else if (message.type == msg::kSmBids) {
    on_sm_bids(message);
  } else if (message.type == msg::kSmRat) {
    on_sm_rat(message);
  } else if (message.type == msg::kAcReady) {
    on_ac_ready(message);
  } else if (message.type == msg::kAcTaskDone) {
    on_ac_task_done(message);
  } else if (message.type == msg::kAcOverload) {
    on_ac_overload(message);
  } else if (message.type == msg::kSmEchoReply) {
    on_sm_echo_reply(message);
  } else if (message.type == msg::kDmOutput) {
    const auto& output = std::any_cast<const OutputFile&>(message.payload);
    if (output_sink_) {
      output_sink_(output.path, output.value, output.size_bytes);
    }
  }
}

// ---- repository maintenance -------------------------------------------------

void SiteManager::on_gm_report(const net::Message& message) {
  const auto& report = std::any_cast<const GmReport&>(message.payload);
  for (const MonReport& r : report.changed) {
    (void)core_.repo(site_).resources().record_workload(r.host, r.sample);
    // A report from a host previously marked down means it recovered.
    auto rec = core_.repo(site_).resources().find(r.host);
    if (rec && !rec->up) {
      (void)core_.repo(site_).resources().set_host_up(r.host, true);
    }
  }
}

void SiteManager::on_gm_host_down(const net::Message& message) {
  const auto& notice = std::any_cast<const HostDownNotice&>(message.payload);
  VDCE_LOG(kInfo, "site-mgr", core_.now())
      << "site " << site_.value() << " marks host " << notice.host.value()
      << " down";
  core_.flight(obs::FlightCode::kHostDown, notice.host.value());
  if (core_.metering()) core_.meters().counter("recovery.hosts_marked_down").add();
  core_.health_event(obs::health::kRecoveryActions,
                     static_cast<std::int64_t>(notice.host.value()),
                     static_cast<std::int64_t>(site_.value()));
  if (core_.tracing()) {
    core_.trace_sink().instant("recovery", "recovery.host_down", core_.now(),
                               obs::kControlTrack,
                               {obs::arg("host", notice.host.value()),
                                obs::arg("site", site_.value())});
  }
  (void)core_.repo(site_).resources().set_host_up(notice.host, false);

  // Advance reservations (docs/RESERVATIONS.md): a crash inside (or ahead
  // of) a committed window re-places only the victim window — the lowest-id
  // up machine that keeps the window conflict-free substitutes for the dead
  // one, and the displacement is surfaced as a typed health alert.
  if (!core_.options().legacy_instant_reservations &&
      core_.reservations().has_windows()) {
    std::vector<common::HostId> candidates;
    for (const net::Host& h : core_.topology().hosts()) {
      if (h.id != notice.host && core_.topology().host_up(h.id)) {
        candidates.push_back(h.id);
      }
    }
    for (std::uint64_t booking : core_.reservations().displace_host(
             notice.host, core_.now(), candidates)) {
      core_.health_event(obs::health::kReservationDisplaced,
                         static_cast<std::int64_t>(notice.host.value()),
                         static_cast<std::int64_t>(site_.value()));
      if (core_.metering()) {
        core_.meters().counter("reservation.windows_displaced").add();
      }
      if (core_.tracing()) {
        core_.trace_sink().instant("reservation", "reservation.displace",
                                   core_.now(), obs::kControlTrack,
                                   {obs::arg("booking", booking),
                                    obs::arg("from", notice.host.value()),
                                    obs::arg("site", site_.value())});
      }
    }
  }

  // Inter-site coordination: tell the other Site Managers.
  for (const net::Site& s : core_.topology().sites()) {
    if (s.id == site_) continue;
    (void)core_.fabric().send(net::Message{server_, s.server, msg::kSmHostDown,
                                           wire::kSmall,
                                           std::any(HostDownNotice{notice.host})});
  }
  // Recover any of our own coordinated applications immediately.
  net::Message forwarded = message;
  on_sm_host_down(forwarded);
}

void SiteManager::on_sm_host_down(const net::Message& message) {
  const auto& notice = std::any_cast<const HostDownNotice&>(message.payload);
  for (auto& [app_value, app] : apps_) {
    if (app.finished) continue;
    // Re-place every unfinished task that touches the failed host; cascade
    // handles lost intermediate outputs.
    std::vector<afg::TaskId> hit;
    for (const auto& [task_value, assignment] : app.current) {
      if (app.done.contains(task_value)) continue;
      for (common::HostId h : assignment.hosts) {
        if (h == notice.host) {
          hit.push_back(assignment.task);
          break;
        }
      }
    }
    for (afg::TaskId t : hit) {
      ++app.failures_survived;
      reschedule_task(app, t, notice.host, "host_down");
      if (app.finished) break;
    }
    if (!app.finished && !app.started) maybe_launch(app);
  }
}

// ---- distributed scheduling (Fig. 2 over the fabric) ------------------------

void SiteManager::schedule_application(common::AppId app,
                                       std::shared_ptr<const afg::Afg> graph,
                                       sched::SchedulingPolicy options,
                                       ScheduleCallback callback) {
  auto ctx = make_context(app);
  PendingSchedule pending;
  pending.graph = graph;
  pending.options = options;
  pending.sites = sched::candidate_site_set(ctx, options);
  pending.callback = std::move(callback);
  pending.started = core_.now();
  if (core_.metering()) core_.meters().counter("sched.requests").add();

  // Local host selection runs in place (Fig. 2 step 4, local half).
  auto local = sched::HostSelectionAlgorithm::run(*graph, site_,
                                                  core_.repo(site_),
                                                  core_.predictor());
  if (!local) {
    auto cb = std::move(pending.callback);
    core_.engine().schedule(0.0, [cb, err = local.error()] { cb(err); });
    return;
  }
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "sched", "sched.host_selection", core_.now(), server_.value(),
        {obs::arg("site", site_.value()),
         obs::arg("bids", std::uint64_t{local->bids.size()})},
        obs::Causal{.app = app.value()});
  }
  pending.outputs.emplace(site_, std::move(*local));

  const auto sites = pending.sites;
  pending_.emplace(app.value(), std::move(pending));

  // Multicast the AFG to the remote candidate sites (Fig. 2 step 3).
  bool any_remote = false;
  for (common::SiteId s : sites) {
    if (s == site_) continue;
    any_remote = true;
    (void)core_.fabric().send(net::Message{
        server_, core_.topology().site(s).server, msg::kSmAfg,
        wire::afg(*graph), std::any(AfgMulticast{app, server_, graph})});
  }
  if (!any_remote) {
    finish_schedule(app.value());
    return;
  }
  // Bid deadline: an unreachable remote site (dead server, partitioned
  // link) must not stall the user; assign with whatever arrived.
  core_.engine().schedule(core_.options().bid_timeout,
                          [this, app_value = app.value()] {
                            if (pending_.contains(app_value)) {
                              VDCE_LOG(kInfo, "site-mgr", core_.now())
                                  << "bid deadline reached for app "
                                  << app_value << "; assigning with partial "
                                  << "host-selection outputs";
                              finish_schedule(app_value);
                            }
                          });
}

void SiteManager::on_sm_afg(const net::Message& message) {
  const auto& request = std::any_cast<const AfgMulticast&>(message.payload);
  auto output = sched::HostSelectionAlgorithm::run(
      *request.graph, site_, core_.repo(site_), core_.predictor());
  if (!output) return;  // cannot bid; origin proceeds without this site
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "sched", "sched.host_selection", core_.now(), server_.value(),
        {obs::arg("site", site_.value()),
         obs::arg("bids", std::uint64_t{output->bids.size()})},
        obs::Causal{.app = request.app.value()});
  }
  double size = wire::bids(*output);
  (void)core_.fabric().send(net::Message{
      server_, request.reply_to, msg::kSmBids, size,
      std::any(BidsReply{request.app, std::move(*output)})});
}

void SiteManager::on_sm_bids(const net::Message& message) {
  const auto& reply = std::any_cast<const BidsReply&>(message.payload);
  auto it = pending_.find(reply.app.value());
  if (it == pending_.end()) return;
  it->second.outputs.emplace(reply.output.site, reply.output);
  if (it->second.outputs.size() == it->second.sites.size()) {
    finish_schedule(reply.app.value());
  }
}

void SiteManager::finish_schedule(std::uint32_t app_value) {
  auto it = pending_.find(app_value);
  assert(it != pending_.end());
  PendingSchedule pending = std::move(it->second);
  pending_.erase(it);

  std::vector<sched::HostSelectionOutput> outputs;
  for (common::SiteId s : pending.sites) {
    auto found = pending.outputs.find(s);
    if (found != pending.outputs.end()) outputs.push_back(found->second);
  }
  core_.flight(obs::FlightCode::kSchedule, server_.value(), app_value);
  if (core_.tracing()) {
    core_.trace_sink().span(
        "sched", "sched.bid_gather", pending.started, core_.now(),
        obs::kControlTrack,
        {obs::arg("app", app_value),
         obs::arg("sites", std::uint64_t{pending.sites.size()}),
         obs::arg("replies", std::uint64_t{outputs.size()})},
        obs::Causal{.app = app_value});
  }
  if (core_.metering()) {
    core_.meters()
        .histogram("sched.bid_gather_seconds")
        .add(core_.now() - pending.started);
  }
  auto ctx = make_context(common::AppId(app_value));
  if (core_.options().legacy_direct_assign) {
    // Frozen pre-registry dispatch, kept verbatim so the strategies
    // differential suite can pin the registry path against it.
    auto result = sched::assign_with_outputs(
        *pending.graph, ctx, outputs, pending.options,
        pending.options.objective == sched::SiteObjective::kPaperObjective
            ? "vdce-level-paper"
            : "vdce-level");
    pending.callback(std::move(result));
    return;
  }
  auto strategy = sched::make_strategy(pending.options);
  if (!strategy) {
    // The environment validates policies at bring-up and submission, so
    // reaching this means a direct caller bypassed validation.
    pending.callback(strategy.error());
    return;
  }
  pending.callback((*strategy)->assign(*pending.graph, ctx, outputs));
}

// ---- execution coordination (Fig. 4) ----------------------------------------

void SiteManager::execute_application(
    common::AppId app_id, afg::Afg graph, sched::ResourceAllocationTable rat,
    std::vector<db::TaskPerfRecord> perf, std::vector<tasklib::Kernel> kernels,
    std::unordered_map<std::uint32_t, std::unordered_map<int, tasklib::Value>>
        initial_inputs,
    ReportCallback callback, double budget) {
  assert(rat.assignments.size() == graph.task_count());
  auto plan = std::make_shared<ExecutionPlan>();
  plan->app = app_id;
  plan->origin = server_;
  plan->graph = std::move(graph);
  plan->rat = std::move(rat);
  plan->perf = std::move(perf);
  if (kernels.empty()) kernels.resize(plan->graph.task_count());
  plan->kernels = std::move(kernels);
  plan->initial_inputs = std::move(initial_inputs);

  ActiveApp app;
  app.plan = plan;
  for (const sched::Assignment& a : plan->rat.assignments) {
    app.current.emplace(a.task.value(), a);
    app.attempts[a.task.value()] = 1;
    for (common::HostId h : a.hosts) app.involved.insert(h);
  }
  app.submitted = core_.now();
  app.budget = core_.options().legacy_no_economy ? 0.0 : budget;
  app.callback = std::move(callback);
  auto [it, inserted] = apps_.emplace(app_id.value(), std::move(app));
  assert(inserted);
  core_.flight(obs::FlightCode::kAppStart, server_.value(), app_id.value());

  // Reserve every machine of the allocation table before any other
  // application's scheduling round can observe this execution — acquisition
  // is atomic with the decision to execute (same engine event), so two
  // concurrent applications can never double-book a host.
  core_.reservations().acquire(app_id, plan->rat.hosts_used());

  // Multicast the allocation table to every involved site's Site Manager
  // (self included: the local hop uses the loopback link).
  RatMulticast rat_msg{plan};
  for (common::SiteId s : plan->rat.sites_used()) {
    (void)core_.fabric().send(net::Message{server_,
                                           core_.topology().site(s).server,
                                           msg::kSmRat, wire::rat(plan->rat),
                                           std::any(rat_msg)});
  }
}

void SiteManager::on_sm_rat(const net::Message& message) {
  const auto& rat = std::any_cast<const RatMulticast&>(message.payload);
  // Forward to each of our group leaders whose group has an involved member.
  for (const net::Group& group : core_.topology().groups_in_site(site_)) {
    bool involved = false;
    for (const sched::Assignment& a : rat.plan->rat.assignments) {
      for (common::HostId h : a.hosts) {
        const net::Host& host = core_.topology().host(h);
        if (host.group == group.id) {
          involved = true;
          break;
        }
      }
      if (involved) break;
    }
    if (!involved) continue;
    (void)core_.fabric().send(net::Message{server_, group.leader,
                                           msg::kSmRatGm,
                                           wire::rat(rat.plan->rat),
                                           std::any(rat)});
  }
}

void SiteManager::on_ac_ready(const net::Message& message) {
  const auto& notice = std::any_cast<const ReadyNotice&>(message.payload);
  auto it = apps_.find(notice.app.value());
  if (it == apps_.end()) return;
  it->second.ready.insert(notice.host);
  maybe_launch(it->second);
}

void SiteManager::maybe_launch(ActiveApp& app) {
  if (app.started || app.finished) return;
  for (common::HostId h : app.involved) {
    if (app.ready.contains(h)) continue;
    // A host that is recorded down does not block the launch; its tasks
    // have been (or will be) rescheduled by the recovery path.
    auto rec = core_.repo(core_.topology().host(h).site).resources().find(h);
    if (rec && !rec->up) continue;
    return;  // still waiting for this host
  }
  app.started = true;
  app.exec_started = core_.now();

  // Stage non-dataflow file inputs (I/O service) before releasing execution.
  for (const afg::TaskNode& t : app.plan->graph.tasks()) {
    stage_file_inputs(app, t.id);
  }
  for (common::HostId h : app.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmStart,
                                           wire::kSmall,
                                           std::any(StartSignal{app.plan->app})});
  }
}

void SiteManager::stage_file_inputs(ActiveApp& app, afg::TaskId task) {
  const afg::TaskNode& node = app.plan->graph.task(task);
  const sched::Assignment& assignment = app.current.at(task.value());
  auto task_inputs = app.plan->initial_inputs.find(task.value());
  for (int port = 0; port < node.in_ports(); ++port) {
    const afg::FileSpec& f = node.props.inputs[static_cast<std::size_t>(port)];
    if (f.dataflow || f.path.empty()) continue;
    tasklib::Value value;
    if (task_inputs != app.plan->initial_inputs.end()) {
      auto v = task_inputs->second.find(port);
      if (v != task_inputs->second.end()) value = v->second;
    }
    (void)core_.fabric().send(net::Message{
        server_, assignment.primary_host(), msg::kDmInput,
        std::max(f.size_bytes, 64.0),
        std::any(DataDelivery{app.plan->app, task, port, std::move(value)}),
        // Staging transfer: feeds `task`, no producer task (src_task unset).
        net::MessageCause{app.plan->app.value(), task.value()}});
  }
}

void SiteManager::on_ac_task_done(const net::Message& message) {
  const auto& done = std::any_cast<const TaskDone&>(message.payload);
  auto it = apps_.find(done.app.value());
  if (it == apps_.end()) return;
  ActiveApp& app = it->second;
  if (app.finished || app.done.contains(done.task.value())) return;

  if (done.failed) {
    complete_app(app, false,
                 "task " + app.plan->graph.task(done.task).instance_name +
                     " failed: " + done.error);
    return;
  }

  app.done.insert(done.task.value());
  const sched::Assignment& assignment = app.current.at(done.task.value());
  TaskOutcome outcome;
  outcome.task = done.task;
  outcome.task_name = app.plan->graph.task(done.task).instance_name;
  outcome.host = done.host;
  outcome.site = core_.topology().host(done.host).site;
  outcome.started = done.started;
  outcome.finished = done.finished;
  outcome.attempts = app.attempts[done.task.value()];
  app.outcomes[done.task.value()] = outcome;
  (void)assignment;

  // Close out this task's recovery events: downtime runs from detection to
  // the start of the attempt that finally completed it.
  for (RecoveryEvent& r : app.recoveries) {
    if (r.task == done.task && r.downtime == 0.0) {
      r.downtime = std::max(0.0, done.started - r.detected_at);
    }
  }

  // "updates the task-performance database with the execution time after an
  // application execution is completed" — each execution sharpens the
  // hosting site's measured history.  Tasks unknown to that site (e.g.
  // synthetic ones resolved on the fly) are registered from the plan first.
  db::TaskPerformanceDb& task_db = core_.repo(outcome.site).tasks();
  const std::string& task_name = app.plan->graph.task(done.task).task_name;
  if (!task_db.contains(task_name)) {
    task_db.register_task(app.plan->perf[done.task.value()]);
  }
  (void)task_db.record_execution(task_name, done.host, done.elapsed);

  if (app.plan->graph.children(done.task).empty() &&
      done.exit_output.has_value()) {
    app.exit_outputs[done.task.value()] = done.exit_output;
  }

  if (app.done.size() == app.plan->graph.task_count()) {
    complete_app(app, true, "");
  }
}

void SiteManager::on_ac_overload(const net::Message& message) {
  const auto& notice = std::any_cast<const OverloadNotice&>(message.payload);
  auto it = apps_.find(notice.app.value());
  if (it == apps_.end()) return;
  ActiveApp& app = it->second;
  if (app.finished || app.done.contains(notice.task.value())) return;
  ++app.reschedules;

  // Anti-livelock: after the attempt cap, restart the task where it was and
  // pin it — moving again under fleet-wide load just keeps resetting its
  // progress to zero.
  if (app.attempts[notice.task.value()] >= core_.options().max_task_attempts) {
    VDCE_LOG(kInfo, "site-mgr", core_.now())
        << "task " << app.plan->graph.task(notice.task).instance_name
        << " hit the attempt cap; pinning on host " << notice.host.value();
    if (core_.metering()) core_.meters().counter("recovery.task_pins").add();
    core_.health_event(obs::health::kRecoveryActions,
                       static_cast<std::int64_t>(notice.host.value()),
                       static_cast<std::int64_t>(site_.value()));
    ++app.attempts[notice.task.value()];
    RecoveryEvent pinned;
    pinned.task = notice.task;
    pinned.reason = "pin";
    pinned.detected_at = core_.now();
    pinned.from_host = notice.host;
    pinned.to_host = notice.host;
    pinned.attempt = app.attempts[notice.task.value()];
    app.recoveries.push_back(std::move(pinned));
    dispatch_updated_plan(app, notice.task, current_plan(app), /*pin=*/true);
    return;
  }
  reschedule_task(app, notice.task, notice.host, "overload");
}

// ---- recovery ----------------------------------------------------------------

bool SiteManager::consume_recovery_budget(ActiveApp& app, const char* action) {
  if (++app.recovery_actions <= core_.options().max_app_recovery_actions) {
    return true;
  }
  core_.flight(obs::FlightCode::kEscalation, server_.value(),
               app.plan->app.value(), 0xFFFFFFFFu,
               static_cast<double>(app.recovery_actions - 1));
  if (core_.metering()) core_.meters().counter("recovery.escalations").add();
  core_.health_event(obs::health::kRecoveryActions, /*host=*/-1,
                     static_cast<std::int64_t>(site_.value()));
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "recovery", "recovery.escalation", core_.now(), obs::kControlTrack,
        {obs::arg("app", app.plan->app.value()), obs::arg("action", action),
         obs::arg("actions", std::int64_t{app.recovery_actions - 1})},
        obs::Causal{.app = app.plan->app.value()});
  }
  complete_app(app, false,
               "recovery budget exhausted after " +
                   std::to_string(app.recovery_actions - 1) +
                   " actions (last attempted: " + std::string(action) + ")");
  return false;
}

void SiteManager::reschedule_task(ActiveApp& app, afg::TaskId task,
                                  common::HostId bad_host, const char* reason) {
  if (app.finished || app.done.contains(task.value())) return;
  if (!consume_recovery_budget(app, reason)) return;
  app.excluded[task.value()].insert(bad_host);

  const afg::TaskNode& node = app.plan->graph.task(task);
  const db::TaskPerfRecord& perf = app.plan->perf[task.value()];
  auto ctx = make_context(app.plan->app);
  const auto sites = sched::candidate_site_set(ctx, {});
  const auto& excluded = app.excluded[task.value()];
  // Machines held by concurrent applications are as unavailable to a
  // recovery re-placement as they are to a scheduling round, and so are
  // machines inside foreign committed reservation windows.  A recovery
  // re-placement has no trustworthy completion estimate (the task already
  // blew its prediction once), so it never backfills across a pending
  // foreign window.  The application's *own* booking is deliberately
  // relaxed here — like the preferred-machine preference below, surviving
  // beats staying inside the booked set when the booked machine died.
  const sched::WindowTable& reservations = core_.reservations();
  const bool windows_on = !core_.options().legacy_instant_reservations &&
                          reservations.has_windows();
  auto reserved = [&](common::HostId h) {
    if (reservations.reserved_by_other(h, app.plan->app)) return true;
    return windows_on &&
           reservations.window_blocked(h, app.plan->app, core_.now(), -1.0,
                                       /*backfill=*/false);
  };

  const auto need = node.props.mode == afg::ComputationMode::kParallel
                        ? static_cast<std::size_t>(node.props.num_nodes)
                        : std::size_t{1};

  // Work already parked on each host by this application's *unfinished*
  // tasks: without this penalty, several simultaneously rescheduled tasks
  // would all pick the same fastest machine and serialize on it.
  std::unordered_map<common::HostId, double> pending_work;
  for (const auto& [other_value, other] : app.current) {
    if (other_value == task.value() || app.done.contains(other_value)) continue;
    for (common::HostId h : other.hosts) {
      pending_work[h] += other.predicted_time;
    }
  }

  // The user's preferred machine/type is a preference, not a survival
  // constraint: when the preferred machine is the one that failed (or is
  // excluded), recovery relaxes the preference rather than failing the
  // application.
  afg::TaskNode relaxed = node;
  relaxed.props.preferred_machine.clear();
  relaxed.props.preferred_machine_type.clear();

  // Economy (docs/ECONOMY.md): a budgeted application's re-placement must
  // keep the quoted spend within the user's budget — a machine the user
  // cannot pay for is as unavailable as a reserved one.  Each candidate is
  // re-quoted against the current assignments with itself substituted, the
  // same estimate the admission gate charged, so spend() <= budget survives
  // recovery by construction.
  const bool budgeted = app.budget > 0.0;
  bool any_unaffordable = false;
  auto affordable = [&](const sched::Assignment& candidate) {
    if (!budgeted) return true;
    if (quote_current(app, &candidate).total() <= app.budget) return true;
    any_unaffordable = true;
    return false;
  };

  bool found = false;
  sched::Assignment chosen;
  double best_objective = 0.0;
  for (int attempt = 0; attempt < 2 && !found; ++attempt) {
    const afg::TaskNode& candidate_node = attempt == 0 ? node : relaxed;
    for (common::SiteId s : sites) {
      auto ranked = sched::HostSelectionAlgorithm::feasible_hosts(
          candidate_node, perf, s, core_.repo(s), core_.predictor());
      for (const sched::RankedHost& rh : ranked) {
        if (excluded.contains(rh.record.host)) continue;
        if (reserved(rh.record.host)) continue;
        if (need == 1) {
          double queue = 0.0;
          if (auto it = pending_work.find(rh.record.host);
              it != pending_work.end()) {
            queue = it->second;
          }
          double objective = queue + rh.predicted;
          if (!found || objective < best_objective) {
            sched::Assignment candidate{task, s, {rh.record.host}, rh.predicted,
                                        0.0, 0.0};
            if (!affordable(candidate)) continue;
            found = true;
            best_objective = objective;
            chosen = candidate;
          }
        }
      }
      if (need > 1) {
        // Parallel groups: take the fastest non-excluded machines of the
        // site (group reschedules are rare; spreading within the group is
        // second-order).
        std::vector<common::HostId> hosts;
        std::vector<db::ResourceRecord> group;
        for (const sched::RankedHost& rh : ranked) {
          if (excluded.contains(rh.record.host)) continue;
          if (reserved(rh.record.host)) continue;
          hosts.push_back(rh.record.host);
          group.push_back(rh.record);
          if (hosts.size() == need) break;
        }
        if (hosts.size() < need) continue;
        auto predicted =
            core_.predictor().predict(perf, group, &core_.repo(s).tasks());
        if (!predicted) continue;
        if (!found || *predicted < best_objective) {
          sched::Assignment candidate{task, s, hosts, *predicted, 0.0, 0.0};
          if (!affordable(candidate)) continue;
          found = true;
          best_objective = *predicted;
          chosen = candidate;
        }
      }
    }
  }
  if (!found) {
    complete_app(app, false,
                 any_unaffordable
                     ? "no affordable resource to reschedule " +
                           node.instance_name + " within the " +
                           common::format_double(app.budget, 2) + " G$ budget"
                     : "no feasible resource to reschedule " +
                           node.instance_name);
    return;
  }

  VDCE_LOG(kInfo, "site-mgr", core_.now())
      << "rescheduling " << node.instance_name << " to host "
      << chosen.primary_host().value() << " (site " << chosen.site.value()
      << ")";
  core_.flight(obs::FlightCode::kRecovery, bad_host.value(),
               app.plan->app.value(), task.value());
  if (core_.metering()) core_.meters().counter("recovery.reschedules").add();
  core_.health_event(obs::health::kRecoveryActions,
                     static_cast<std::int64_t>(bad_host.value()),
                     static_cast<std::int64_t>(site_.value()));
  if (core_.tracing()) {
    // Causal tag: the next exec.task span of this task is the relaunched
    // attempt this recovery action caused.
    core_.trace_sink().instant(
        "recovery", "recovery.reschedule", core_.now(), obs::kControlTrack,
        {obs::arg("task", node.instance_name),
         obs::arg("from", bad_host.value()),
         obs::arg("to", chosen.primary_host().value())},
        obs::Causal{.app = app.plan->app.value(), .task = task.value()});
  }

  app.current[task.value()] = chosen;
  ++app.attempts[task.value()];
  for (common::HostId h : chosen.hosts) app.involved.insert(h);
  core_.reservations().acquire(app.plan->app, chosen.hosts);

  RecoveryEvent ev;
  ev.task = task;
  ev.reason = reason;
  ev.detected_at = core_.now();
  ev.from_host = bad_host;
  ev.to_host = chosen.primary_host();
  ev.attempt = app.attempts[task.value()];
  app.recoveries.push_back(std::move(ev));

  // Parents whose cached outputs lived on a failed host must re-execute
  // before they can feed the moved task (cascading recovery).
  for (const afg::Edge& e : app.plan->graph.in_edges(task)) {
    const sched::Assignment& parent = app.current.at(e.from.value());
    if (!core_.topology().host_up(parent.primary_host()) &&
        app.done.contains(e.from.value())) {
      app.done.erase(e.from.value());
      app.outcomes.erase(e.from.value());
      reschedule_task(app, e.from, parent.primary_host(), "cascade");
      if (app.finished) return;
    }
  }

  dispatch_updated_plan(app, task, current_plan(app));
}

econ::SpendBreakdown SiteManager::quote_current(
    const ActiveApp& app, const sched::Assignment* substitute) const {
  sched::ResourceAllocationTable rat = app.plan->rat;
  for (sched::Assignment& a : rat.assignments) {
    a = substitute != nullptr && substitute->task == a.task
            ? *substitute
            : app.current.at(a.task.value());
  }
  return econ::estimate_spend(app.plan->graph, rat, core_.topology(),
                              core_.options().prices);
}

PlanPtr SiteManager::current_plan(const ActiveApp& app) const {
  auto plan = std::make_shared<ExecutionPlan>(*app.plan);
  for (sched::Assignment& a : plan->rat.assignments) {
    a = app.current.at(a.task.value());
  }
  return plan;
}

void SiteManager::dispatch_updated_plan(ActiveApp& app, afg::TaskId task,
                                        const PlanPtr& plan, bool pin) {
  const sched::Assignment& assignment = app.current.at(task.value());

  // Targeted re-dispatch: the coordinator already knows the exact machine,
  // so the Group Manager fan-out is skipped for this one request.
  (void)core_.fabric().send(net::Message{
      server_, assignment.primary_host(), msg::kGmExec, wire::kSmall,
      std::any(ExecRequest{plan, assignment.primary_host(),
                           pin ? task : afg::TaskId{}})});
  if (app.started) {
    (void)core_.fabric().send(net::Message{server_, assignment.primary_host(),
                                           msg::kSmStart, wire::kSmall,
                                           std::any(StartSignal{plan->app})});
    stage_file_inputs(app, task);
    // Pull dataflow inputs from each parent's current host.
    for (const afg::Edge& e : app.plan->graph.in_edges(task)) {
      const sched::Assignment& parent = app.current.at(e.from.value());
      if (!core_.topology().host_up(parent.primary_host())) continue;
      (void)core_.fabric().send(net::Message{
          server_, parent.primary_host(), msg::kDmResend, wire::kSmall,
          std::any(ResendRequest{plan->app, e.from, e.from_port, task,
                                 e.to_port, assignment.primary_host()})});
    }
  }
}

void SiteManager::progress_sweep() {
  for (auto& [app_value, app] : apps_) {
    if (app.finished) continue;
    // Safety net: catch tasks stranded on hosts recorded down whose
    // notifications raced with plan dispatch.
    std::vector<std::pair<afg::TaskId, common::HostId>> stranded;
    for (const auto& [task_value, assignment] : app.current) {
      if (app.done.contains(task_value)) continue;
      for (common::HostId h : assignment.hosts) {
        if (!core_.topology().host_up(h)) {
          stranded.emplace_back(assignment.task, h);
          break;
        }
      }
    }
    for (const auto& [task, host] : stranded) {
      ++app.failures_survived;
      reschedule_task(app, task, host, "host_down");
      if (app.finished) break;
    }
    if (app.finished) continue;

    if (!app.started) {
      maybe_launch(app);
      if (app.started || app.finished) continue;
      // Still waiting for readiness reports: after stall_sweeps quiet
      // sweeps, assume the allocation-table fan-out (or the readiness
      // replies) were lost and re-multicast the RAT.  Re-activation is
      // idempotent at every hop.
      if (++app.prestart_sweeps < core_.options().stall_sweeps) continue;
      app.prestart_sweeps = 0;
      if (++app.quiet_stalls > kMaxQuietStalls) continue;  // stop spamming
      core_.flight(obs::FlightCode::kRecovery, server_.value(),
                   app.plan->app.value());
      if (core_.metering()) core_.meters().counter("recovery.relaunches").add();
      core_.health_event(obs::health::kRecoveryActions, /*host=*/-1,
                         static_cast<std::int64_t>(site_.value()));
      if (core_.tracing()) {
        core_.trace_sink().instant(
            "recovery", "recovery.relaunch", core_.now(), obs::kControlTrack,
            {obs::arg("app", app.plan->app.value())},
            obs::Causal{.app = app.plan->app.value()});
      }
      RecoveryEvent ev;
      ev.reason = "relaunch";
      ev.detected_at = core_.now();
      app.recoveries.push_back(std::move(ev));
      PlanPtr plan = current_plan(app);
      for (common::SiteId s : plan->rat.sites_used()) {
        (void)core_.fabric().send(net::Message{
            server_, core_.topology().site(s).server, msg::kSmRat,
            wire::rat(plan->rat), std::any(RatMulticast{plan})});
      }
      continue;
    }

    // Running but nothing newly finished: after stall_sweeps quiet sweeps,
    // re-send start signals and inputs (lost-message safety net).
    if (app.done.size() != app.last_done_count) {
      app.last_done_count = app.done.size();
      app.stalled_sweeps = 0;
      app.quiet_stalls = 0;
    } else if (++app.stalled_sweeps >= core_.options().stall_sweeps) {
      app.stalled_sweeps = 0;
      stall_recover(app);
    }
  }
}

void SiteManager::stall_recover(ActiveApp& app) {
  // A quiet period is not proof of a wedge — a long task completes nothing
  // for many sweeps — and every resend is idempotent, so stalls do not
  // charge the recovery budget.  They are merely rate-capped: if repeated
  // resends change nothing, more of them will not either.
  if (++app.quiet_stalls > kMaxQuietStalls) return;
  core_.flight(obs::FlightCode::kStall, server_.value(),
               app.plan->app.value(),
               static_cast<std::uint32_t>(app.done.size()));
  if (core_.metering()) core_.meters().counter("recovery.stall_resends").add();
  core_.health_event(obs::health::kRecoveryActions, /*host=*/-1,
                     static_cast<std::int64_t>(site_.value()));
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "recovery", "recovery.stall", core_.now(), obs::kControlTrack,
        {obs::arg("app", app.plan->app.value()),
         obs::arg("done", std::uint64_t{app.done.size()}),
         obs::arg("tasks",
                  std::uint64_t{app.plan->graph.task_count()})},
        obs::Causal{.app = app.plan->app.value()});
  }
  RecoveryEvent ev;
  ev.reason = "stall";
  ev.detected_at = core_.now();
  app.recoveries.push_back(std::move(ev));

  // Re-dispatch every unfinished task to its current host: re-activates the
  // Data Manager (idempotent merge), repeats the start signal (which also
  // replays completion notices we may have missed), re-stages file inputs
  // (duplicate deliveries are dropped on filled ports), and pulls dataflow
  // inputs from finished parents again.  One plan snapshot serves every
  // re-dispatch: re-sending changes no assignment.
  const PlanPtr plan = current_plan(app);
  for (const auto& [task_value, assignment] : app.current) {
    if (app.done.contains(task_value)) continue;
    if (!core_.topology().host_up(assignment.primary_host())) continue;
    dispatch_updated_plan(app, assignment.task, plan);
  }
}

void SiteManager::complete_app(ActiveApp& app, bool success,
                               const std::string& reason) {
  app.finished = true;
  // Free this application's machines for queued tenants (success or not —
  // a failed application must not strand its reservations).
  core_.reservations().release(app.plan->app);
  ExecutionReport report;
  report.app = app.plan->app;
  report.app_name = app.plan->graph.name();
  report.scheduler = app.plan->rat.scheduler_name;
  report.success = success;
  report.failure_reason = reason;
  report.submitted = app.submitted;
  report.exec_started = app.started ? app.exec_started : core_.now();
  report.completed = core_.now();
  report.reschedules = app.reschedules;
  report.failures_survived = app.failures_survived;
  report.recoveries = app.recoveries;
  for (const afg::TaskNode& t : app.plan->graph.tasks()) {
    auto it = app.outcomes.find(t.id.value());
    if (it != app.outcomes.end()) report.outcomes.push_back(it->second);
  }
  // Causal structure for ExecutionReport::critical_path(): the report is
  // self-contained — no need to keep the AFG around to analyze it.
  for (const afg::Edge& e : app.plan->graph.edges()) {
    report.dag_edges.emplace_back(e.from.value(), e.to.value());
  }
  report.exit_outputs = app.exit_outputs;
  // Economy (docs/ECONOMY.md): quote the *final* placements — recovery
  // re-placements were budget-gated, so this total respects the budget for
  // every run that was admitted.  Unbudgeted runs keep a zero quote, which
  // keeps their reports byte-identical to the pre-economy pipeline.
  if (app.budget > 0.0) {
    report.budget = app.budget;
    report.spend_parts = quote_current(app);
  }
  core_.flight(obs::FlightCode::kAppDone, server_.value(),
               report.app.value(), success ? 1u : 0u, report.makespan());

  if (core_.metering()) {
    obs::MetricsRegistry& m = core_.meters();
    m.counter(success ? "app.completed" : "app.failed").add();
    if (success) {
      m.histogram("app.setup_seconds").add(report.setup_time());
      m.histogram("app.makespan").add(report.makespan());
    }
  }
  if (core_.tracing()) {
    obs::TraceSink& sink = core_.trace_sink();
    sink.span("app", "app.setup", report.submitted, report.exec_started,
              obs::kControlTrack, {obs::arg("app", report.app.value())},
              obs::Causal{.app = report.app.value()});
    sink.span("app", "app.run", report.exec_started, report.completed,
              obs::kControlTrack,
              {obs::arg("app", report.app.value()),
               obs::arg("name", report.app_name),
               obs::arg("success", success),
               obs::arg("reschedules", std::int64_t{report.reschedules}),
               obs::arg("failures_survived",
                        std::int64_t{report.failures_survived})},
              obs::Causal{.app = report.app.value()});
  }

  if (app.callback) app.callback(std::move(report));
}

void SiteManager::suspend_application(common::AppId app_id) {
  auto it = apps_.find(app_id.value());
  if (it == apps_.end()) return;
  for (common::HostId h : it->second.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmSuspend,
                                           wire::kSmall,
                                           std::any(SuspendSignal{app_id})});
  }
}

void SiteManager::resume_application(common::AppId app_id) {
  auto it = apps_.find(app_id.value());
  if (it == apps_.end()) return;
  for (common::HostId h : it->second.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmResume,
                                           wire::kSmall,
                                           std::any(SuspendSignal{app_id})});
  }
}

}  // namespace vdce::runtime
