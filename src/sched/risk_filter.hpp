// Candidate-site filtering shared by every scheduling algorithm: combines
// the configured risk mode with structural feasibility (node count, the
// availability mask) and the fail-stop rule (secure_only retries go to safe
// sites in every mode).
#pragma once

#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

/// True iff `job` may be placed on the context's site `s` under the policy
/// `cutoff` was built from: the job fits, the site is not masked out (a
/// churned-down site is never admissible, whatever the risk mode), and the
/// risk mode admits the pair at the context's lambda (the one `cutoff` was
/// built with). The one admissibility predicate every scheduler must use;
/// a scheduler builds its cutoff once per schedule_into.
bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskCutoff& cutoff) noexcept;

/// Admissible set over the context's sites, in site order.
std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskCutoff& cutoff);

}  // namespace gridsched::sched
