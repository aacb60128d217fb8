// Admission control for the multi-tenant concurrency plane (docs/TENANCY.md).
//
// The environment accepts asynchronous submissions from many users; this
// module decides, deterministically, which of them may be in flight at
// once.  It is pure bookkeeping — no engine, no fabric, no environment
// dependency — so the policy is trivially testable and the vdce_env layer
// simply wires it between submit_application() and the runtime:
//
//   submit  ->  enqueue()     typed rejections: quota, queue bound
//   pump    ->  admit_next()  deterministic FIFO / priority order; the
//                             caller's filter decides which deferred
//                             entries may retry now
//   retry   ->  defer()       schedule lost to contention; resumes in order
//   finish  ->  complete()    frees the slot and the user's quota share
//
// Determinism: ordering depends only on (policy, priority, submission
// sequence number) — never on hashes or wall-clock time — so the same
// arrival sequence always admits in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"

namespace vdce::tenancy {

/// Order in which queued submissions are admitted.
enum class QueuePolicy {
  kFifo,      ///< strictly by submission order
  kPriority,  ///< by user priority (higher first), submission order as tie-break
};

struct TenancyOptions {
  /// Applications concurrently past admission (scheduling or executing).
  /// 0 means unlimited.
  std::size_t max_in_flight = 8;
  /// Per-user cap on queued + in-flight submissions.  0 means unlimited.
  std::size_t per_user_quota = 0;
  /// Bound on the admission queue across all users.  0 means unlimited.
  std::size_t max_queue_depth = 64;
  QueuePolicy policy = QueuePolicy::kFifo;
  /// Per-user cap on *committed advance reservations* (outstanding window
  /// bookings; docs/RESERVATIONS.md).  0 means unlimited — the default
  /// never rejects, so environments that ignore the reservation plane are
  /// unaffected.
  std::size_t max_reservations_per_user = 0;
};

/// Counters surfaced through VdceEnvironment::tenancy_stats().
struct TenancyStats {
  std::uint64_t submitted = 0;       ///< enqueue() calls that were accepted
  std::uint64_t rejected = 0;        ///< enqueue() calls turned away (any reason)
  std::uint64_t admitted = 0;        ///< admit_next() grants
  std::uint64_t deferred = 0;        ///< defer() calls (rounds lost to contention)
  std::uint64_t completed = 0;       ///< complete() calls
  std::size_t peak_in_flight = 0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t reservations = 0;          ///< reserve_booking() grants
  std::uint64_t reservations_rejected = 0; ///< reserve_booking() quota denials
};

class AdmissionController {
 public:
  explicit AdmissionController(TenancyOptions options) : options_(options) {}

  /// Admit `handle` (an environment-chosen submission id) into the queue.
  /// Typed failures: kQuotaExceeded when the user's quota or the global
  /// queue bound is hit.  The caller validates the user's existence first.
  [[nodiscard]] common::Status enqueue(std::uint64_t handle,
                                       const std::string& user, int priority);

  /// Decides whether a deferred submission may retry now (see admit_next).
  using RetryFilter = std::function<bool(std::uint64_t handle)>;

  /// The next submission allowed to start, or nullopt when the queue is
  /// empty or max_in_flight submissions are already running.  The returned
  /// handle moves to the in-flight set.  A deferred entry is a candidate
  /// only when `may_retry` (if set) accepts its handle; a skipped entry
  /// keeps its sequence number, so once accepted it is admitted ahead of
  /// every later entry.  Skipping is not a deferral.
  [[nodiscard]] std::optional<std::uint64_t> admit_next(
      const RetryFilter& may_retry = {});

  /// Return an in-flight submission to the queue without touching quota
  /// accounting; its original sequence number keeps its place in line.
  /// Used when scheduling found every candidate machine held by concurrent
  /// applications — the caller decides when it may retry (admit_next).
  void defer(std::uint64_t handle);

  /// Submission finished (success or failure): frees its in-flight slot and
  /// its share of the user's quota.
  void complete(std::uint64_t handle);

  /// Advance-reservation quota (docs/RESERVATIONS.md): charge `user` one
  /// outstanding window booking.  kQuotaExceeded once
  /// max_reservations_per_user is reached (0 = never).  The environment
  /// calls this before committing a window to the WindowTable.
  [[nodiscard]] common::Status reserve_booking(const std::string& user);
  /// A booking was cancelled or expired: return the user's quota share.
  void release_booking(const std::string& user);

  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.size();
  }
  [[nodiscard]] const TenancyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TenancyOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Entry {
    std::uint64_t handle;
    std::string user;
    int priority;
    std::uint64_t seq;
    bool deferred = false;  ///< lost a round to contention at least once
  };

  /// True when `a` should be admitted before `b` under the active policy.
  [[nodiscard]] bool before(const Entry& a, const Entry& b) const;

  TenancyOptions options_;
  std::vector<Entry> queue_;  ///< unsorted; admit_next scans (queues are short)
  std::unordered_map<std::uint64_t, Entry> in_flight_;  ///< handle -> entry
  std::unordered_map<std::string, std::size_t> per_user_;
  std::unordered_map<std::string, std::size_t> bookings_per_user_;
  std::uint64_t next_seq_ = 0;
  TenancyStats stats_;
};

}  // namespace vdce::tenancy
