// Synthetic site-churn parameter generation: per-site MTBF/MTTR pairs for
// the exponential up/down churn process (drawn by sim::SimKernel's churn
// handlers). Site reliability is heterogeneous in real grids, so each
// site's means are the configured grid-wide means scaled by an independent
// uniform factor.
// Deterministic in (config, rng state) like every other synth component.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/site.hpp"
#include "util/rng.hpp"

namespace gridsched::workload::synth {

struct ChurnConfig {
  /// Master switch; the other fields are ignored (and unvalidated) when
  /// false, so churn-free configs never have to reason about them.
  bool enabled = false;
  /// Grid-wide mean up-time between failures / mean outage length (s).
  double mtbf_mean = 0.0;
  double mttr_mean = 0.0;
  /// Per-site heterogeneity: each site's MTBF and MTTR are the means
  /// scaled by independent U[1 - spread, 1 + spread] draws. 0 = identical
  /// sites; must lie in [0, 1).
  double spread = 0.5;
};

/// One SiteChurnParams per site. Returns an empty vector (no churn process)
/// when the config is disabled; throws std::invalid_argument on
/// non-positive means or an out-of-range spread.
std::vector<sim::SiteChurnParams> churn_params(std::size_t n_sites,
                                               const ChurnConfig& config,
                                               util::Rng& rng);

}  // namespace gridsched::workload::synth
