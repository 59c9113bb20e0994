#include "sim/site.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsched::sim {

NodeAvailability::NodeAvailability(unsigned nodes, Time t0) : free_(nodes, t0) {
  if (nodes == 0)
    throw std::invalid_argument("NodeAvailability: nodes must be > 0");
}

Time NodeAvailability::earliest_start(unsigned k, Time now) const {
  if (k == 0 || k > free_.size()) {
    throw std::invalid_argument(
        "NodeAvailability::earliest_start: bad node count");
  }
  // free_ is sorted ascending: k nodes are simultaneously free once the
  // k-th earliest becomes free.
  return std::max(now, free_[k - 1]);
}

NodeAvailability::Window NodeAvailability::preview(unsigned k, double exec,
                                                   Time now) const {
  const Time start = earliest_start(k, now);
  return {start, start + exec};
}

NodeAvailability::Window NodeAvailability::reserve(unsigned k, double exec,
                                                   Time now) {
  const Window window = preview(k, exec, now);
  // The k earliest-free nodes are all idle by window.start and become free
  // at window.end; restore sorted order as a merge with no data-dependent
  // branch. If c entries of [k, n) are below end, entry i < c takes
  // free[i + k], entries [c, c + k) take end and the rest keep their own
  // value: max(own, min(free[i + k], end)) for i < n - k. The last k
  // entries have no free[i + k]; the same rule with +inf there is
  // max(own, end). Iteration i reads free[i + k] before iteration i + k
  // writes it, so the merge runs in place. Exact because free times are
  // never NaN or -0.0.
  Time* const free_times = free_.data();
  const std::size_t head = free_.size() - k;
  const Time end = window.end;
  for (std::size_t i = 0; i < head; ++i) {
    free_times[i] = std::max(free_times[i], std::min(free_times[i + k], end));
  }
  for (std::size_t i = head; i < free_.size(); ++i) {
    free_times[i] = std::max(free_times[i], end);
  }
  return window;
}

unsigned NodeAvailability::release(unsigned k, Time reserved_end,
                                   Time release_at) {
  if (release_at > reserved_end) {
    throw std::invalid_argument(
        "NodeAvailability::release: release_at is late");
  }
  // Entries equal to reserved_end form a contiguous run in the sorted
  // profile; any node re-reserved since has a strictly larger free time.
  unsigned released = 0;
  for (std::size_t i = 0; i < free_.size() && released < k; ++i) {
    if (free_[i] == reserved_end) {
      free_[i] = release_at;
      ++released;
    }
  }
  if (released > 0) std::sort(free_.begin(), free_.end());
  return released;
}

GridSite::GridSite(SiteConfig config)
    : config_(config), avail_(config.nodes, 0.0) {
  if (config_.speed <= 0.0) {
    throw std::invalid_argument("GridSite: speed must be > 0");
  }
}

NodeAvailability::Window GridSite::dispatch(unsigned job_nodes, double exec,
                                            Time now) {
  if (!fits(job_nodes)) {
    throw std::invalid_argument("GridSite::dispatch: job does not fit site");
  }
  ++dispatched_;
  return avail_.reserve(job_nodes, exec, now);
}

unsigned GridSite::release_after_failure(unsigned job_nodes, Time reserved_end,
                                         Time detect_time) {
  return avail_.release(job_nodes, reserved_end, detect_time);
}

void GridSite::account_busy(unsigned job_nodes, double duration) noexcept {
  busy_node_seconds_ += static_cast<double>(job_nodes) * duration;
}

double GridSite::utilization(Time horizon) const noexcept {
  if (horizon <= 0.0) return 0.0;
  const double capacity = static_cast<double>(config_.nodes) * horizon;
  return std::clamp(busy_node_seconds_ / capacity, 0.0, 1.0);
}

}  // namespace gridsched::sim
