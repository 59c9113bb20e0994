#include "workload/sites.hpp"

#include <algorithm>
#include <stdexcept>

#include "security/security.hpp"

namespace gridsched::workload {

namespace {
double draw_security(util::Rng& rng) {
  return rng.uniform(security::kSiteSecurityLo, security::kSiteSecurityHi);
}
}  // namespace

std::vector<sim::SiteConfig> nas_sites(util::Rng& rng) {
  std::vector<sim::SiteConfig> sites;
  sites.reserve(12);
  for (int i = 0; i < 4; ++i) {
    sites.push_back({static_cast<sim::SiteId>(sites.size()), 16u, 1.0,
                     draw_security(rng)});
  }
  for (int i = 0; i < 8; ++i) {
    sites.push_back({static_cast<sim::SiteId>(sites.size()), 8u, 1.0,
                     draw_security(rng)});
  }
  ensure_safe_home(sites, 16, security::kJobDemandHi, rng);
  return sites;
}

std::vector<sim::SiteConfig> psa_sites(util::Rng& rng, std::size_t count) {
  if (count == 0) throw std::invalid_argument("psa_sites: count must be > 0");
  std::vector<sim::SiteConfig> sites;
  sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Speed level 1..10; x10 work-units/s calibration (README "Model
    // parameters").
    const double speed = 10.0 * static_cast<double>(rng.uniform_int(1, 10));
    sites.push_back(
        {static_cast<sim::SiteId>(i), 1u, speed, draw_security(rng)});
  }
  ensure_safe_home(sites, 1, security::kJobDemandHi, rng);
  return sites;
}

void ensure_safe_home(std::vector<sim::SiteConfig>& sites, unsigned max_nodes,
                      double demand_hi, util::Rng& rng) {
  sim::SiteConfig* best = nullptr;
  for (sim::SiteConfig& site : sites) {
    if (site.nodes < max_nodes) continue;
    if (site.security >= demand_hi) return;  // already guaranteed
    if (!best || site.security > best->security) best = &site;
  }
  if (!best) {
    throw std::invalid_argument(
        "ensure_safe_home: no site fits the largest job");
  }
  best->security = rng.uniform(demand_hi, security::kSiteSecurityHi);
}

}  // namespace gridsched::workload
