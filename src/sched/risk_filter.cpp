#include "sched/risk_filter.hpp"

namespace gridsched::sched {

bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskCutoff& cutoff) noexcept {
  const sim::SiteConfig& site = context.sites[s];
  if (!context.site_usable(s) || job.nodes > site.nodes) return false;
  if (job.secure_only) {
    // Fail-stop rule: a previously failed job may only run where it is
    // absolutely safe, regardless of the scheduler's mode.
    return security::is_safe(job.demand, site.security);
  }
  return cutoff.admits(job.demand, site.security);
}

std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskCutoff& cutoff) {
  std::vector<sim::SiteId> result;
  result.reserve(context.sites.size());
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (admissible(context, job, s, cutoff)) {
      result.push_back(static_cast<sim::SiteId>(s));
    }
  }
  return result;
}

}  // namespace gridsched::sched
