// Candidate-site filtering shared by every scheduling algorithm: combines
// the configured risk mode with structural feasibility (node count, the
// availability mask) and the fail-stop rule (secure_only retries go to safe
// sites in every mode).
#pragma once

#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

/// True iff `job` may be placed on the context's site `s` under `policy`:
/// the job fits, the site is not masked out (a churned-down site is never
/// admissible, whatever the risk mode), and the risk mode admits the pair
/// at the context's lambda. The one admissibility predicate every
/// scheduler must use.
bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskPolicy& policy) noexcept;

/// Admissible set over the context's sites, in site order.
std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskPolicy& policy);

}  // namespace gridsched::sched
