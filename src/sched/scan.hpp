// Matrix-free cell evaluation shared by the heuristic schedulers. A cell
// (job, site) is filtered structurally first (node fit, availability
// mask), then priced straight from the availability profile and the
// context's execution model. MET, OLB, the Min-Min family and MCT's site
// trees defer the full admissibility predicate until a cell would change
// the caller's running best: the predicate is pure, and an inadmissible
// site never changed the running best, so the deferral is exact. MCT's
// scan masks instead: its start rows (StartRows) hold infinity where a
// job cannot fit, and the risk cutoff's deficit compare bars the rest.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/scheduling.hpp"

namespace gridsched::sched::scan {

/// Throws std::invalid_argument unless the context satisfies what the
/// unchecked reads in fits() and completion() rely on: one availability
/// profile per site, a site mask that is empty or one entry per site, at
/// least as many profile nodes as the site declares, and no job asking for
/// zero nodes.
inline void check_context(const sim::SchedulerContext& context) {
  if (context.avail.size() != context.sites.size()) {
    throw std::invalid_argument("scheduler: avail/sites size mismatch");
  }
  if (!context.site_up.empty() &&
      context.site_up.size() != context.sites.size()) {
    throw std::invalid_argument("scheduler: site_up/sites size mismatch");
  }
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (context.avail[s].nodes() < context.sites[s].nodes) {
      throw std::invalid_argument("scheduler: site profile too small");
    }
  }
  for (const sim::BatchJob& job : context.jobs) {
    if (job.nodes == 0) {
      throw std::invalid_argument("scheduler: job needs zero nodes");
    }
  }
}

/// The structural half of admissible(context, job, s, cutoff): a job of
/// `nodes` nodes fits the site and the site is not masked out.
[[nodiscard]] inline bool fits(const sim::SchedulerContext& context,
                               unsigned nodes, std::size_t s) noexcept {
  return nodes <= context.sites[s].nodes && context.site_usable(s);
}

[[nodiscard]] inline bool fits(const sim::SchedulerContext& context,
                               const sim::BatchJob& job,
                               std::size_t s) noexcept {
  return fits(context, job.nodes, s);
}

/// Earliest time `nodes` nodes are simultaneously free on `avail`:
/// NodeAvailability::earliest_start without its bounds check. Requires
/// fits() and check_context().
[[nodiscard]] inline sim::Time start_time(const sim::NodeAvailability& avail,
                                          unsigned nodes,
                                          sim::Time now) noexcept {
  return std::max(now, avail.free_times()[nodes - 1]);
}

[[nodiscard]] inline sim::Time start_time(const sim::NodeAvailability& avail,
                                          const sim::BatchJob& job,
                                          sim::Time now) noexcept {
  return start_time(avail, job.nodes, now);
}

/// Completion time of `job` run for `exec` seconds on `avail`: the same
/// value as NodeAvailability::preview(...).end.
[[nodiscard]] inline double completion(const sim::NodeAvailability& avail,
                                       const sim::BatchJob& job, double exec,
                                       sim::Time now) noexcept {
  return start_time(avail, job, now) + exec;
}

/// start_time of a `nodes`-node job on site `s` of `avail`, or infinity
/// where it does not fit or the site is masked out. Requires
/// check_context().
[[nodiscard]] inline double start_or_inf(
    const sim::SchedulerContext& context,
    const std::vector<sim::NodeAvailability>& avail, unsigned nodes,
    std::size_t s) noexcept {
  return fits(context, nodes, s) ? start_time(avail[s], nodes, context.now)
                                 : std::numeric_limits<double>::infinity();
}

/// One row of start_or_inf over the sites per node count a batch
/// requests, kept current through a pass's reservations: a job's
/// completion on site s is row(job.nodes)[s] + its exec cell, infinity
/// where it cannot run. Refilled by assignment into existing capacity.
class StartRows {
 public:
  /// Fill one row per distinct job.nodes of the batch that some site can
  /// hold, from the context's profiles. Requires check_context().
  void build(const sim::SchedulerContext& context) {
    n_sites_ = context.sites.size();
    unsigned max_nodes = 0;
    for (const sim::SiteConfig& site : context.sites) {
      max_nodes = std::max(max_nodes, site.nodes);
    }
    row_of_.assign(std::size_t{max_nodes} + 1, kNoRow);
    row_nodes_.clear();
    for (const sim::BatchJob& job : context.jobs) {
      if (job.nodes <= max_nodes && row_of_[job.nodes] == kNoRow) {
        row_of_[job.nodes] = static_cast<std::uint32_t>(row_nodes_.size());
        row_nodes_.push_back(job.nodes);
      }
    }
    start_.resize(row_nodes_.size() * n_sites_);
    for (std::size_t r = 0; r < row_nodes_.size(); ++r) {
      for (std::size_t s = 0; s < n_sites_; ++s) {
        start_[r * n_sites_ + s] =
            start_or_inf(context, context.avail, row_nodes_[r], s);
      }
    }
  }

  /// The row of `nodes`-node jobs, or null when no site has that many
  /// nodes (or the batch build() saw never asked for it).
  [[nodiscard]] const double* row(unsigned nodes) const noexcept {
    if (nodes >= row_of_.size() || row_of_[nodes] == kNoRow) return nullptr;
    return start_.data() + std::size_t{row_of_[nodes]} * n_sites_;
  }

  /// Re-read site `s`'s entries from `avail[s]` after a reservation there.
  void update(const sim::SchedulerContext& context,
              const std::vector<sim::NodeAvailability>& avail,
              std::size_t s) {
    for (std::size_t r = 0; r < row_nodes_.size(); ++r) {
      start_[r * n_sites_ + s] = start_or_inf(context, avail, row_nodes_[r], s);
    }
  }

 private:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  std::size_t n_sites_ = 0;
  /// Node count each row serves, and each node count's row (kNoRow when
  /// the batch never asks for it or no site has that many nodes).
  std::vector<unsigned> row_nodes_;
  std::vector<std::uint32_t> row_of_;
  /// Row r's entry for site s at r * n_sites_ + s.
  std::vector<double> start_;
};

}  // namespace gridsched::sched::scan
