// Message fabric: the in-process substitute for VDCE's socket plumbing.
//
// Every control- and data-plane interaction in the paper — the Site Manager
// multicasting the resource allocation table, Group Managers sending echo
// packets, Data Manager proxies exchanging setup/ACK, inter-task transfers —
// is a message from one host to another.  The fabric delivers messages on
// the simulation clock after the topology's transfer time for the message
// size, and enforces failure semantics: messages to or from a down host are
// silently dropped (exactly the behaviour echo-based failure detection
// relies on, §4.1).
//
// Messages are typed (net/message.hpp): an interned MsgKind names the
// message and an inline Payload carries the small struct its sender and
// receiver agree on.  Neither is a closed list, so this substrate still
// knows nothing of the layers above it, and neither allocates, so the
// daemons' steady traffic never touches the heap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace vdce::net {

// The fabric's delivery event captures `this` and the whole message.
static_assert(sizeof(Message) + sizeof(void*) <= sim::Task::kInlineBytes,
              "net::Message no longer fits the fabric's delivery closure");

/// Per-fabric traffic counters, broken down by message type — the raw data
/// behind the monitoring-overhead experiment (E4) and Fig. 4's message-flow
/// accounting.  The fabric counts sends per MsgKind in a flat array;
/// `sent_by_type` is that count keyed by kind name, updated in place when
/// stats() is read (entries are only added, until reset_stats()), and lists
/// only kinds sent at least once.
struct FabricStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_dst_down = 0;
  std::uint64_t dropped_src_down = 0;
  std::uint64_t dropped_unbound = 0;
  /// Messages dropped by an installed FaultInterceptor (partitions and
  /// transient-loss windows of the chaos plane).
  std::uint64_t dropped_injected = 0;
  double bytes_sent = 0.0;
  std::map<std::string, std::uint64_t> sent_by_type;

  void reset() { *this = FabricStats{}; }
};

/// Fault-injection hook (implemented by chaos::ChaosInjector).  Consulted on
/// every send: the interceptor may drop the message outright (a partition or
/// a transient-loss window) or degrade the link spec used to time the
/// transfer.  An interface so the net layer stays independent of the chaos
/// subsystem above it.
class FaultInterceptor {
 public:
  virtual ~FaultInterceptor() = default;

  /// True = silently drop this message (the sender still observes a normal
  /// send, exactly like a lossy wire).
  virtual bool should_drop(const Message& msg) = 0;

  /// Return the (possibly degraded) link spec to use for this transfer.
  virtual LinkSpec adjust_link(HostId src, HostId dst, LinkSpec link) = 0;
};

/// The fabric.  One per simulated environment; not thread-safe (runs inside
/// the single-threaded simulation).
///
/// Contention model: by default links have unlimited capacity (transfers
/// never interact).  With `set_shared_segments(true)` each LAN behaves as
/// the shared Ethernet segment of the era and each WAN site-pair as one
/// serial pipe: a transfer occupies its segment for `bytes/bandwidth`, and
/// concurrent transfers queue FIFO behind it (latency is propagation and is
/// not serialized).  Loopback traffic never contends.
class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;

  Fabric(sim::Engine& engine, Topology& topology)
      : engine_(engine), topology_(topology) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Install the message dispatcher for a host (its "node daemon").  Each
  /// host has exactly one handler; layers above demultiplex on `kind`.
  void bind(HostId host, Handler handler);

  /// Remove a host's handler (host decommissioned).
  void unbind(HostId host);

  /// Send a message.  Delivery is scheduled `transfer_time(src, dst, size)`
  /// in the future; the message is dropped if the source is down now or the
  /// destination is down / unbound at delivery time.  Returns the scheduled
  /// delivery time (even if the message may later be dropped), or an error
  /// if the source host is already down.
  common::Expected<common::SimTime> send(Message msg);

  /// Send the same message to many destinations ("multicast" in the paper —
  /// implemented as iterated unicast, as site-to-site multicast was).
  void multicast(HostId src, const std::vector<HostId>& dsts, MsgKind kind,
                 double size_bytes, const Payload& payload);

  [[nodiscard]] const FabricStats& stats() const;
  void reset_stats();

  /// Attach a fault interceptor (null detaches).  See FaultInterceptor.
  void set_fault_interceptor(FaultInterceptor* interceptor) {
    fault_ = interceptor;
  }

  /// Attach the environment's observability instance (null detaches).  With
  /// metrics on, every send feeds per-link-class transfer histograms; with
  /// tracing on, every send records a `fabric.transfer` span from emission
  /// to scheduled delivery.  Disabled observability costs one branch.
  void set_observability(obs::Observability* obs);

  /// Enable/disable shared-segment contention (see class comment).
  void set_shared_segments(bool on) { shared_segments_ = on; }
  [[nodiscard]] bool shared_segments() const noexcept {
    return shared_segments_;
  }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] Topology& topology() noexcept { return topology_; }

 private:
  void deliver(Message msg);

  /// Segment identity for contention: one per site LAN, one per WAN pair.
  [[nodiscard]] std::uint64_t segment_key(HostId src, HostId dst) const;

  /// Link class of a (src, dst) pair for per-link metric breakdown.
  enum class LinkClass { kLoopback, kLan, kWan };
  [[nodiscard]] LinkClass link_class(HostId src, HostId dst) const;

  sim::Engine& engine_;
  Topology& topology_;
  std::unordered_map<HostId, Handler> handlers_;
  /// Counters; `sent_by_type` is brought up to date from sent_by_kind_ by
  /// stats().
  mutable FabricStats stats_;
  std::array<std::uint64_t, MsgKind::kMaxKinds> sent_by_kind_{};
  FaultInterceptor* fault_ = nullptr;
  obs::Observability* obs_ = nullptr;
  /// Cached metric handles (valid for the registry's lifetime), so the send
  /// hot path never performs a name lookup.
  common::Stats* bytes_hist_[3] = {nullptr, nullptr, nullptr};
  common::Stats* latency_hist_[3] = {nullptr, nullptr, nullptr};
  bool shared_segments_ = false;
  /// When shared_segments_: time each segment finishes its queued transfers.
  std::unordered_map<std::uint64_t, common::SimTime> segment_busy_until_;
};

}  // namespace vdce::net
