#include "runtime/group_manager.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace vdce::runtime {

GroupManager::GroupManager(RuntimeCore& core, common::GroupId group,
                           common::HostId leader, common::HostId site_server)
    : core_(core), group_(group), leader_(leader), site_server_(site_server) {
  const net::Group& g = core_.topology().group(group_);
  members_.reserve(g.members.size());
  for (common::HostId host : g.members) members_.push_back(Member{host});
}

GroupManager::Member* GroupManager::member(common::HostId host) {
  for (Member& m : members_) {
    if (m.host == host) return &m;
  }
  return nullptr;
}

void GroupManager::start() {
  if (started_) return;
  started_ = true;
  echo_timer_ = core_.engine().every(core_.options().echo_period,
                                     [this] { echo_tick(); },
                                     core_.options().echo_period * 0.5);
}

void GroupManager::stop() { echo_timer_.cancel(); }

void GroupManager::handle(const net::Message& message) {
  if (message.kind == msg::kMonReport) {
    on_mon_report(message);
  } else if (message.kind == msg::kGmEchoReply) {
    on_echo_reply(message);
  } else if (message.kind == msg::kSmRatGm) {
    on_rat(message);
  }
}

void GroupManager::on_mon_report(const net::Message& message) {
  const auto& report = message.payload.as<MonReport>();
  ++reports_received_;
  if (core_.metering()) core_.meters().counter("monitor.reports_received").add();
  Member* m = member(report.host);
  if (m == nullptr) return;  // monitors report to their own group's leader

  // Any traffic from a host is proof of life: without this, an echo round
  // that straddles a host's recovery would declare it down again right
  // after its first post-recovery workload report.
  m->echo_replied = true;
  const bool recovered = m->reported_down;
  m->reported_down = false;

  // Significant-change filter: forward only if the load moved by more than
  // the threshold since the last *forwarded* value.  First reports and
  // recovery reports always pass (the Site Manager must re-mark the host
  // up even if its load happens to match the last forwarded value).
  const bool significant =
      recovered || !m->last_forwarded_load ||
      std::fabs(report.sample.cpu_load - *m->last_forwarded_load) >=
          core_.options().significant_change;
  if (!significant) return;

  m->last_forwarded_load = report.sample.cpu_load;
  ++reports_forwarded_;
  if (core_.metering()) {
    core_.meters().counter("monitor.reports_forwarded").add();
  }
  (void)core_.fabric().send(net::Message{leader_, site_server_, msg::kGmReport,
                                         wire::gm_report(), report});
}

void GroupManager::echo_tick() {
  // Close the previous round first: anyone silent is presumed failed.
  if (echo_outstanding_) {
    for (Member& m : members_) {
      const common::HostId member = m.host;
      if (member == leader_) continue;  // the leader vouches for itself
      if (m.echo_replied || m.reported_down) continue;
      m.reported_down = true;
      VDCE_LOG(kInfo, "group-mgr", core_.now())
          << "host " << core_.topology().host(member).spec.name
          << " failed echo round " << echo_seq_;
      if (core_.metering()) {
        core_.meters().counter("monitor.failures_detected").add();
      }
      core_.health_event(obs::health::kFailuresDetected,
                         static_cast<std::int64_t>(member.value()),
                         static_cast<std::int64_t>(
                             core_.topology().host(member).site.value()));
      core_.flight(obs::FlightCode::kHostDown, member.value());
      if (core_.tracing()) {
        core_.trace_sink().instant(
            "monitor", "monitor.failure_detected", core_.now(), leader_.value(),
            {obs::arg("host", member.value()), obs::arg("round", echo_seq_)});
      }
      (void)core_.fabric().send(net::Message{leader_, site_server_,
                                             msg::kGmHostDown, wire::kSmall,
                                             HostDownNotice{member}});
    }
  }

  // Open the next round.
  ++echo_seq_;
  for (Member& m : members_) m.echo_replied = false;
  echo_outstanding_ = true;
  if (core_.metering()) core_.meters().counter("monitor.echo_rounds").add();
  if (core_.tracing()) {
    core_.trace_sink().instant("monitor", "monitor.echo_round", core_.now(),
                               leader_.value(),
                               {obs::arg("group", group_.value()),
                                obs::arg("round", echo_seq_)});
  }
  for (const Member& m : members_) {
    if (m.host == leader_) continue;
    (void)core_.fabric().send(net::Message{leader_, m.host, msg::kGmEcho,
                                           wire::kEcho,
                                           EchoPacket{leader_, echo_seq_}});
  }
}

void GroupManager::on_echo_reply(const net::Message& message) {
  const auto& echo = message.payload.as<EchoPacket>();
  if (echo.seq != echo_seq_) return;  // stale reply from an earlier round
  if (Member* m = member(message.src)) m->echo_replied = true;
}

void GroupManager::on_rat(const net::Message& message) {
  const auto& rat = message.payload.as<RatMulticast>();
  const net::Group& group = core_.topology().group(group_);

  // Forward an execution request to the Application Controller of each
  // member that appears in the allocation table.
  for (common::HostId member : group.members) {
    bool involved = false;
    for (const sched::Assignment& a : rat.plan->rat.assignments) {
      for (common::HostId h : a.hosts) {
        if (h == member) {
          involved = true;
          break;
        }
      }
      if (involved) break;
    }
    if (!involved) continue;
    (void)core_.fabric().send(net::Message{leader_, member, msg::kGmExec,
                                           wire::kSmall,
                                           ExecRequest{rat.plan, member}});
  }
}

}  // namespace vdce::runtime
