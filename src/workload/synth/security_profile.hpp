// Security-demand and site trust-level distributions for synthetic
// workloads, spanning the paper's regimes: the Table 1 defaults
// (SD ~ U[0.6, 0.9] vs SL ~ U[0.4, 1.0]), a "secure" regime where trust
// dominates demand (risk never pays), and a "risky" regime where most
// sites under-secure most jobs (risk is the only way to finish fast).
#pragma once

#include <string>
#include <vector>

#include "sim/site.hpp"
#include "util/rng.hpp"

namespace gridsched::workload::synth {

struct SecurityProfile {
  /// Job security demand SD ~ U[demand_lo, demand_hi].
  double demand_lo = 0.6;
  double demand_hi = 0.9;
  /// Site trust level SL ~ U[trust_lo, trust_hi].
  double trust_lo = 0.4;
  double trust_hi = 1.0;
  /// Fraction of sites forced to SL >= demand_hi ("certified" sites),
  /// rounded up so any positive fraction certifies at least one; the
  /// generator always guarantees a safe home regardless, so fail-stop
  /// retries cannot starve.
  double certified_fraction = 0.0;

  /// Paper Table 1 distributions.
  static SecurityProfile paper() { return {}; }
  /// Trust dominates demand: almost every site is safe for every job.
  static SecurityProfile secure() { return {0.3, 0.6, 0.7, 1.0, 0.25}; }
  /// Demand dominates trust: secure placements are scarce.
  static SecurityProfile risky() { return {0.7, 0.95, 0.3, 0.8, 0.05}; }
};

std::string to_string(const SecurityProfile& profile);

/// Throws std::invalid_argument naming `generator` and the field unless
/// every bound is finite, demand_lo <= demand_hi, trust_lo <= trust_hi
/// and certified_fraction lies in [0, 1]. The generators call it once,
/// before any site or job is drawn; draw_demand and assign_trust assume a
/// validated profile.
void validate(const SecurityProfile& profile, const char* generator);

/// Draw one job demand.
double draw_demand(const SecurityProfile& profile, util::Rng& rng);

/// Assign trust levels to every site in place: a random subset of
/// ceil(certified_fraction * n) sites gets SL >= demand_hi, the rest draw
/// U[trust_lo, trust_hi]; then guarantee a safe home for the largest job
/// (`max_nodes`). Throws std::invalid_argument when `sites` is empty.
void assign_trust(std::vector<sim::SiteConfig>& sites,
                  const SecurityProfile& profile, unsigned max_nodes,
                  util::Rng& rng);

}  // namespace gridsched::workload::synth
