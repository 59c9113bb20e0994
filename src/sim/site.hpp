// Grid sites: space-shared pools of identical nodes with a security level.
//
// Scheduling uses *node-availability profiles*: the sorted vector of the
// times at which each node becomes free. Reserving k nodes for a job fixes
// its start at max(now, k-th earliest free time) — reservation-based space
// sharing, so the completion times the heuristics/GA optimise are exactly
// the ones the simulator realises (README "Model parameters").
#pragma once

#include <variant>
#include <vector>

#include "sim/types.hpp"

namespace gridsched::sim {

/// Static description of a site.
struct SiteConfig {
  SiteId id = kInvalidSite;
  unsigned nodes = 1;
  /// Node speed for the rank-1 fallback execution model: a job of `work`
  /// reference seconds runs work/speed seconds. Ignored for a job that
  /// carries a raw ETC row (sim::exec_time).
  double speed = 1.0;
  /// Security level SL (paper: U[0.4, 1.0]).
  double security = 1.0;
};

/// Per-site churn-process parameters (exponential up/down alternation).
/// A site with either field <= 0 never churns; workloads carry one entry
/// per site (or none at all) and SimKernel draws the timeline.
struct SiteChurnParams {
  double mtbf = 0.0;  ///< mean up-time between failures (seconds)
  double mttr = 0.0;  ///< mean outage duration (seconds)

  [[nodiscard]] bool churns() const noexcept {
    return mtbf > 0.0 && mttr > 0.0;
  }
};

/// One scripted outage: `site` is down during [down, up).
struct SiteOutage {
  SiteId site = kInvalidSite;
  Time down = 0.0;
  Time up = 0.0;
};

/// A run's site churn, handed to the SimKernel constructor: per-site
/// stochastic parameters (the synth workloads' mode) or an explicit outage
/// script (tests, trace-driven what-ifs). The default — no parameters —
/// is a churn-free grid.
using SiteChurn =
    std::variant<std::vector<SiteChurnParams>, std::vector<SiteOutage>>;

/// Sorted multiset of per-node free times with reservation operations.
class NodeAvailability {
 public:
  NodeAvailability() = default;
  explicit NodeAvailability(unsigned nodes, Time t0 = 0.0);

  struct Window {
    Time start = 0.0;
    Time end = 0.0;
  };

  [[nodiscard]] unsigned nodes() const noexcept {
    return static_cast<unsigned>(free_.size());
  }

  /// Earliest time k nodes are simultaneously free, not before `now`.
  /// Requires 1 <= k <= nodes().
  [[nodiscard]] Time earliest_start(unsigned k, Time now) const;

  /// Completion window if k nodes were reserved for `exec` seconds; const.
  [[nodiscard]] Window preview(unsigned k, double exec, Time now) const;

  /// Commit a reservation: the k earliest-free nodes are busy during the
  /// returned window. Keeps the profile sorted.
  Window reserve(unsigned k, double exec, Time now);

  /// Undo the tail of a reservation that ended early (fail-stop detection):
  /// up to k nodes whose free time still equals `reserved_end` (i.e. not
  /// re-reserved since) become free at `release_at` instead. Returns how
  /// many nodes were reclaimed.
  unsigned release(unsigned k, Time reserved_end, Time release_at);

  /// Sorted ascending free times, one entry per node.
  [[nodiscard]] const std::vector<Time>& free_times() const noexcept {
    return free_;
  }

 private:
  std::vector<Time> free_;
};

/// Runtime site state: static config + committed availability profile +
/// utilization accounting.
class GridSite {
 public:
  explicit GridSite(SiteConfig config);

  [[nodiscard]] const SiteConfig& config() const noexcept { return config_; }
  [[nodiscard]] SiteId id() const noexcept { return config_.id; }
  [[nodiscard]] unsigned nodes() const noexcept { return config_.nodes; }
  [[nodiscard]] double speed() const noexcept { return config_.speed; }
  [[nodiscard]] double security() const noexcept { return config_.security; }

  [[nodiscard]] bool fits(unsigned job_nodes) const noexcept {
    return job_nodes <= config_.nodes;
  }

  [[nodiscard]] const NodeAvailability& availability() const noexcept {
    return avail_;
  }

  /// Commit a reservation for a job needing `job_nodes` nodes and `exec`
  /// seconds (resolved by the caller through sim::exec_time), starting no
  /// earlier than `now`.
  NodeAvailability::Window dispatch(unsigned job_nodes, double exec, Time now);

  /// Reclaim the unused tail of a failed job's reservation. `reserved_end`
  /// must be the end of the Window `dispatch` returned for that job.
  /// Returns how many nodes were actually reclaimed (the caller checks it
  /// against job_nodes — a shortfall means stranded capacity).
  unsigned release_after_failure(unsigned job_nodes, Time reserved_end,
                                 Time detect_time);

  /// Account node-seconds actually spent computing (successful runs fully,
  /// failed runs until the failure was detected).
  void account_busy(unsigned job_nodes, double duration) noexcept;

  [[nodiscard]] double busy_node_seconds() const noexcept {
    return busy_node_seconds_;
  }

  /// Utilization in [0, 1] over the horizon [0, horizon].
  [[nodiscard]] double utilization(Time horizon) const noexcept;

  [[nodiscard]] std::size_t dispatched_jobs() const noexcept {
    return dispatched_;
  }

 private:
  SiteConfig config_;
  NodeAvailability avail_;
  double busy_node_seconds_ = 0.0;
  std::size_t dispatched_ = 0;
};

}  // namespace gridsched::sim
