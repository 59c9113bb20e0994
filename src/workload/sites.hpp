// Grid-site configuration builders for the paper's two testbeds.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/site.hpp"
#include "util/rng.hpp"

namespace gridsched::workload {

/// Paper Table 1, NAS row: the 128 iPSC/860 nodes mapped onto 12 sites —
/// four 16-node sites and eight 8-node sites, unit speed. Security levels
/// drawn U[0.4, 1.0].
std::vector<sim::SiteConfig> nas_sites(util::Rng& rng);

/// Paper Table 1, PSA row: `count` single-node sites with speed level
/// 1..10 (x10 work-units/s, README "Model parameters"). Security levels
/// U[0.4, 1.0].
std::vector<sim::SiteConfig> psa_sites(util::Rng& rng, std::size_t count = 20);

/// Guarantee the fail-stop rule can always be honoured: at least one site
/// that fits `max_nodes` has SL >= demand_hi. Bumps the highest-SL fitting
/// site if needed (README "Model parameters", secure home).
void ensure_safe_home(std::vector<sim::SiteConfig>& sites, unsigned max_nodes,
                      double demand_hi, util::Rng& rng);

}  // namespace gridsched::workload
