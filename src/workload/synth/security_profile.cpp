#include "workload/synth/security_profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "workload/sites.hpp"

namespace gridsched::workload::synth {

std::string to_string(const SecurityProfile& profile) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "SD~U[%.2f,%.2f] SL~U[%.2f,%.2f]",
                profile.demand_lo, profile.demand_hi, profile.trust_lo,
                profile.trust_hi);
  return buffer;
}

void validate(const SecurityProfile& profile, const char* generator) {
  // Negated positive tests, so NaN fails them too: a NaN fraction makes
  // assign_trust's size_t cast undefined, and NaN demand bounds surface
  // only later as a misleading "no absolutely-safe site".
  const auto require = [generator](bool ok, const char* problem) {
    if (!ok) {
      throw std::invalid_argument(std::string(generator) + ": security." +
                                  problem);
    }
  };
  require(std::isfinite(profile.demand_lo), "demand_lo must be finite");
  require(std::isfinite(profile.demand_hi) &&
              profile.demand_hi >= profile.demand_lo,
          "demand_hi must be finite and >= demand_lo");
  require(std::isfinite(profile.trust_lo), "trust_lo must be finite");
  require(std::isfinite(profile.trust_hi) &&
              profile.trust_hi >= profile.trust_lo,
          "trust_hi must be finite and >= trust_lo");
  require(profile.certified_fraction >= 0.0 &&
              profile.certified_fraction <= 1.0,
          "certified_fraction must lie in [0, 1]");
}

double draw_demand(const SecurityProfile& profile, util::Rng& rng) {
  return rng.uniform(profile.demand_lo, profile.demand_hi);
}

void assign_trust(std::vector<sim::SiteConfig>& sites,
                  const SecurityProfile& profile, unsigned max_nodes,
                  util::Rng& rng) {
  if (sites.empty()) throw std::invalid_argument("assign_trust: no sites");
  // Round up so any positive fraction certifies at least one site, and
  // pick the certified subset at random: site index correlates with speed
  // and node count in synthetic grids (consistent ETC sorting), so
  // certifying by index would confound trust with capacity.
  const auto certified = std::min(
      sites.size(),
      static_cast<std::size_t>(std::ceil(
          profile.certified_fraction * static_cast<double>(sites.size()))));
  std::vector<std::size_t> order(sites.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const double certified_lo = std::max(profile.demand_hi, profile.trust_lo);
  const double certified_hi = std::max(certified_lo, profile.trust_hi);
  for (std::size_t i = 0; i < order.size(); ++i) {
    sites[order[i]].security =
        i < certified ? rng.uniform(certified_lo, certified_hi)
                      : rng.uniform(profile.trust_lo, profile.trust_hi);
  }
  ensure_safe_home(sites, max_nodes, profile.demand_hi, rng);
}

}  // namespace gridsched::workload::synth
