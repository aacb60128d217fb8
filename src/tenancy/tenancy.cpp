#include "tenancy/tenancy.hpp"

#include <algorithm>

namespace vdce::tenancy {

common::Status AdmissionController::enqueue(std::uint64_t handle,
                                            const std::string& user,
                                            int priority) {
  if (options_.max_queue_depth != 0 &&
      queue_.size() >= options_.max_queue_depth) {
    ++stats_.rejected;
    return common::Error{common::ErrorCode::kQuotaExceeded,
                         "admission queue full (" +
                             std::to_string(queue_.size()) + " waiting)"};
  }
  if (options_.per_user_quota != 0) {
    auto it = per_user_.find(user);
    const std::size_t current = it == per_user_.end() ? 0 : it->second;
    if (current >= options_.per_user_quota) {
      ++stats_.rejected;
      return common::Error{
          common::ErrorCode::kQuotaExceeded,
          "user " + user + " already has " + std::to_string(current) +
              " submissions (quota " +
              std::to_string(options_.per_user_quota) + ")"};
    }
  }
  queue_.push_back(Entry{handle, user, priority, next_seq_++});
  ++per_user_[user];
  ++stats_.submitted;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
  return common::Status::success();
}

bool AdmissionController::before(const Entry& a, const Entry& b) const {
  if (options_.policy == QueuePolicy::kPriority && a.priority != b.priority) {
    return a.priority > b.priority;
  }
  return a.seq < b.seq;
}

std::optional<std::uint64_t> AdmissionController::admit_next(
    const RetryFilter& may_retry) {
  if (queue_.empty()) return std::nullopt;
  if (options_.max_in_flight != 0 &&
      in_flight_.size() >= options_.max_in_flight) {
    return std::nullopt;
  }
  // The filter runs only for entries that would beat the current pick, so
  // a long line of deferred entries costs few filter calls.
  std::optional<std::size_t> found;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (found && !before(queue_[i], queue_[*found])) continue;
    if (queue_[i].deferred && may_retry && !may_retry(queue_[i].handle)) {
      continue;
    }
    found = i;
  }
  if (!found) return std::nullopt;
  const std::size_t pick = *found;
  Entry entry = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  const std::uint64_t handle = entry.handle;
  in_flight_.emplace(handle, std::move(entry));
  ++stats_.admitted;
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_.size());
  return handle;
}

void AdmissionController::defer(std::uint64_t handle) {
  auto it = in_flight_.find(handle);
  if (it == in_flight_.end()) return;
  it->second.deferred = true;
  queue_.push_back(std::move(it->second));  // original seq keeps its place
  in_flight_.erase(it);
  ++stats_.deferred;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
}

common::Status AdmissionController::reserve_booking(const std::string& user) {
  if (options_.max_reservations_per_user != 0) {
    auto it = bookings_per_user_.find(user);
    const std::size_t current = it == bookings_per_user_.end() ? 0 : it->second;
    if (current >= options_.max_reservations_per_user) {
      ++stats_.reservations_rejected;
      return common::Error{
          common::ErrorCode::kQuotaExceeded,
          "user " + user + " already holds " + std::to_string(current) +
              " reservations (quota " +
              std::to_string(options_.max_reservations_per_user) + ")"};
    }
  }
  ++bookings_per_user_[user];
  ++stats_.reservations;
  return common::Status::success();
}

void AdmissionController::release_booking(const std::string& user) {
  auto it = bookings_per_user_.find(user);
  if (it != bookings_per_user_.end() && --it->second == 0) {
    bookings_per_user_.erase(it);
  }
}

void AdmissionController::complete(std::uint64_t handle) {
  auto it = in_flight_.find(handle);
  if (it == in_flight_.end()) return;
  auto user = per_user_.find(it->second.user);
  if (user != per_user_.end() && --user->second == 0) per_user_.erase(user);
  in_flight_.erase(it);
  ++stats_.completed;
}

}  // namespace vdce::tenancy
