// Group Manager (§4.1): runs on each group-leader machine.
//
// Two responsibilities from the paper:
//  1. Workload aggregation with a significant-change filter: "The Group
//     Manager sends to the Site Manager only the workloads of the
//     resources that have changed considerably from the previous
//     measurement."
//  2. Failure detection: "periodically check all hosts in the group by
//     sending echo packets to hosts and waiting for their responses.  When
//     a failure of a host is detected, the Group Manager passes this
//     information to the Site Manager."
//
// Plus its Fig. 4 role in execution fan-out: on receiving the resource
// allocation table from the Site Manager, it forwards an execution request
// with the relevant plan to the Application Controller of each involved
// member machine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "runtime/core.hpp"
#include "runtime/protocol.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

class GroupManager {
 public:
  GroupManager(RuntimeCore& core, common::GroupId group, common::HostId leader,
               common::HostId site_server);

  void start();
  void stop();

  void handle(const net::Message& message);

  /// Observability for the failure-detection bench.
  [[nodiscard]] std::uint64_t reports_received() const noexcept {
    return reports_received_;
  }
  [[nodiscard]] std::uint64_t reports_forwarded() const noexcept {
    return reports_forwarded_;
  }

 private:
  void on_mon_report(const net::Message& message);
  void on_echo_reply(const net::Message& message);
  void on_rat(const net::Message& message);
  void echo_tick();

  /// Per-member bookkeeping, in the group's member order.  Membership never
  /// changes, so the vector is built once and every echo round only resets
  /// flags: the round allocates nothing.
  struct Member {
    common::HostId host;
    /// Last load actually forwarded, for the change filter.
    std::optional<double> last_forwarded_load{};
    bool echo_replied = false;   ///< replied to the current echo round
    bool reported_down = false;  ///< already reported (no repeat notices)
  };
  /// The member entry of `host`; null for a host outside the group.
  [[nodiscard]] Member* member(common::HostId host);

  RuntimeCore& core_;
  common::GroupId group_;
  common::HostId leader_;
  common::HostId site_server_;
  sim::TimerHandle echo_timer_;
  bool started_ = false;

  std::vector<Member> members_;
  std::uint64_t echo_seq_ = 0;
  bool echo_outstanding_ = false;

  std::uint64_t reports_received_ = 0;
  std::uint64_t reports_forwarded_ = 0;
};

}  // namespace vdce::runtime
