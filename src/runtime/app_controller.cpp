#include "runtime/app_controller.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace vdce::runtime {

void LoadCheckSweep::add(AppController& controller) {
  if (controllers_.empty()) {
    const common::SimDuration period = core_.options().controller_period;
    timer_ = core_.engine().every(period, [this] { tick(); }, period);
  }
  controllers_.push_back(&controller);
}

void LoadCheckSweep::tick() {
  for (AppController* controller : controllers_) controller->check_load();
}

void AppController::start() {
  if (started_) return;
  started_ = true;
  sweep_.add(*this);
}

void AppController::handle(const net::Message& message) {
  if (message.kind == msg::kGmExec) {
    on_exec(message);
  } else if (message.kind == msg::kSmStart) {
    dm_.start_app(message.payload.as<StartSignal>().app);
  } else if (message.kind == msg::kSmSuspend) {
    dm_.suspend(message.payload.as<SuspendSignal>().app);
  } else if (message.kind == msg::kSmResume) {
    dm_.resume(message.payload.as<SuspendSignal>().app);
  }
}

void AppController::on_exec(const net::Message& message) {
  const auto& request = message.payload.as<ExecRequest>();
  PlanPtr plan = request.plan;
  // Activate the Data Manager; once its channels are acknowledged, report
  // readiness to the origin Site Manager.
  dm_.activate(
      plan,
      [this, plan] {
        (void)core_.fabric().send(net::Message{
            host_, plan->origin, msg::kAcReady, wire::kSmall,
            ReadyNotice{plan->app, host_}});
      },
      request.pin);
}

void AppController::check_load() {
  const net::Host& h = core_.topology().host(host_);
  if (!h.state.up) return;
  if (h.state.cpu_load <= core_.options().overload_threshold) return;

  for (const DataManager::Aborted& aborted : dm_.abort_running()) {
    VDCE_LOG(kInfo, "app-ctrl", core_.now())
        << "host " << h.spec.name << " overloaded (load "
        << common::format_double(h.state.cpu_load, 2)
        << "); terminating task " << aborted.task.value()
        << " and requesting reschedule";
    core_.flight(obs::FlightCode::kOverload, host_.value(),
                 aborted.app.value(), aborted.task.value(), h.state.cpu_load);
    if (core_.metering()) {
      core_.meters().counter("recovery.overload_terminations").add();
    }
    core_.health_event(obs::health::kRecoveryActions,
                       static_cast<std::int64_t>(host_.value()),
                       static_cast<std::int64_t>(h.site.value()));
    if (core_.tracing()) {
      core_.trace_sink().instant(
          "recovery", "recovery.overload", core_.now(), host_.value(),
          {obs::arg("app", aborted.app.value()),
           obs::arg("task", aborted.task.value()),
           obs::arg("load", h.state.cpu_load)},
          obs::Causal{.app = aborted.app.value(),
                      .task = aborted.task.value()});
    }
    (void)core_.fabric().send(net::Message{
        host_, aborted.origin, msg::kAcOverload, wire::kSmall,
        OverloadNotice{aborted.app, aborted.task, host_, h.state.cpu_load}});
  }
}

}  // namespace vdce::runtime
