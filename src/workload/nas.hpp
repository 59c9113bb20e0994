// Synthetic NAS iPSC/860 trace generator (README "Model parameters").
//
// The paper replays 46 days (16 000 jobs) of the 1993 NASA Ames iPSC/860
// accounting trace. The trace itself is not redistributable here, so this
// generator reproduces its published characterisation (Feitelson &
// Nitzberg, 1994): power-of-two node requests dominated by small jobs, a
// large mass of short runtimes with a heavy lognormal tail, and bursty
// arrivals with strong daily and weekly cycles. Runtimes are rescaled so
// the offered load hits a configurable fraction of grid capacity, which is
// what the paper's "squeezed to 46 days" step achieves.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/job.hpp"
#include "sim/site.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace gridsched::workload {

struct NasTraceConfig {
  std::size_t n_jobs = 16000;      ///< paper Table 1
  double horizon = 46.0 * 86400.0; ///< 46 days, seconds
  /// Offered load: sum(work*nodes) / (capacity*horizon). 0 disables scaling.
  double target_load = 0.55;
  /// Node-request distribution over powers of two {1,2,4,8,16}; sizes are
  /// capped at the largest site (README "Model parameters"). At most 8
  /// entries, each finite and >= 0, with a positive sum.
  std::vector<double> size_weights = {0.25, 0.20, 0.20, 0.20, 0.15};
  /// Short-job mixture component (interactive/debug runs).
  double short_fraction = 0.3;
  double short_log_mean = 3.4;   ///< exp(3.4) ~ 30 s median
  double short_log_sigma = 1.0;
  double long_log_mean = 7.1;    ///< exp(7.1) ~ 1200 s median
  double long_log_sigma = 1.6;
  double max_runtime = 86400.0;  ///< cap, seconds
  double min_runtime = 1.0;
  /// Diurnal modulation amplitude in [0,1) and weekend damping factor.
  double diurnal_amplitude = 0.6;
  double weekend_factor = 0.7;
};

/// Generate jobs only (no sites); deterministic in (config, seed).
std::vector<sim::Job> nas_jobs(const NasTraceConfig& config,
                               const std::vector<sim::SiteConfig>& sites,
                               std::uint64_t seed);

/// Full workload: the 12-site NAS grid plus the synthetic trace.
Workload nas_workload(const NasTraceConfig& config, std::uint64_t seed);

/// Arrival-intensity profile (relative rate at time t); exposed for tests.
double nas_arrival_intensity(double t, const NasTraceConfig& config) noexcept;

}  // namespace gridsched::workload
