// Matrix-free cell evaluation shared by the heuristic schedulers. A cell
// (job, site) is filtered structurally first (node fit, availability
// mask), then priced straight from the availability profile and the
// context's execution model. The full admissibility predicate, which
// evaluates the risk model, is deferred until a cell would change the
// caller's running best: the predicate is pure, and an inadmissible site
// never changed the running best, so the deferral is exact.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sim/scheduling.hpp"

namespace gridsched::sched::scan {

/// Throws std::invalid_argument unless the context satisfies what the
/// unchecked profile read in completion() relies on: one availability
/// profile per site, at least as many nodes as the site declares, and no
/// job asking for zero nodes.
inline void check_context(const sim::SchedulerContext& context) {
  if (context.avail.size() != context.sites.size()) {
    throw std::invalid_argument("scheduler: avail/sites size mismatch");
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

/// The structural half of admissible(context, job, s, policy): the job
/// fits the site and the site is not masked out.
[[nodiscard]] inline bool fits(const sim::SchedulerContext& context,
                               const sim::BatchJob& job,
                               std::size_t s) noexcept {
  return job.nodes <= context.sites[s].nodes && context.site_usable(s);
}

/// Earliest time `job`'s nodes are simultaneously free on `avail`:
/// NodeAvailability::earliest_start without its bounds check. Requires
/// fits() and check_context().
[[nodiscard]] inline sim::Time start_time(const sim::NodeAvailability& avail,
                                          const sim::BatchJob& job,
                                          sim::Time now) noexcept {
  return std::max(now, avail.free_times()[job.nodes - 1]);
}

/// Completion time of `job` run for `exec` seconds on `avail`: the same
/// value as NodeAvailability::preview(...).end.
[[nodiscard]] inline double completion(const sim::NodeAvailability& avail,
                                       const sim::BatchJob& job, double exec,
                                       sim::Time now) noexcept {
  return start_time(avail, job, now) + exec;
}

}  // namespace gridsched::sched::scan
