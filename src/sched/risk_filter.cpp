#include "sched/risk_filter.hpp"

namespace gridsched::sched {

bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskPolicy& policy) noexcept {
  const sim::SiteConfig& site = context.sites[s];
  if (!context.site_usable(s) || job.nodes > site.nodes) return false;
  if (job.secure_only) {
    // Fail-stop rule: a previously failed job may only run where it is
    // absolutely safe, regardless of the scheduler's mode.
    return security::is_safe(job.demand, site.security);
  }
  return policy.admissible(job.demand, site.security, context.lambda);
}

std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskPolicy& policy) {
  std::vector<sim::SiteId> result;
  result.reserve(context.sites.size());
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (admissible(context, job, s, policy)) {
      result.push_back(static_cast<sim::SiteId>(s));
    }
  }
  return result;
}

}  // namespace gridsched::sched
