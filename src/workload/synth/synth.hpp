// Synthetic workload generator: parameterised ETC heterogeneity classes x
// arrival processes x security regimes. Each job's generated raw
// per-site ETC row is its execution model, so every consistency class —
// including semi-consistent and inconsistent — is simulated exactly; the
// rank-1 work/speed fit only supplies the job/site scalar fields.
// Everything is deterministic in (config, seed) via independent util::Rng
// child streams, so scenarios are reproducible and shardable across the
// thread pool.
//
// One generator, two consumers (as stream_gen.hpp): synth_stream builds
// the grid and the fit, and hands the jobs out through a
// workload::JobStream cursor that regenerates each job's ETC row as it is
// pulled; synth_workload drains that cursor into a job vector and the
// rows into the workload's ETC matrix. Each job component draws from its
// own child stream, so the cursor's lazy draws equal the materialised
// ones bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/synth/arrival.hpp"
#include "workload/synth/churn.hpp"
#include "workload/synth/etc_gen.hpp"
#include "workload/synth/security_profile.hpp"
#include "workload/synth/stream_gen.hpp"
#include "workload/workload.hpp"

namespace gridsched::workload::synth {

struct SynthConfig {
  std::string name = "synth";
  std::size_t n_jobs = 1000;
  std::size_t n_sites = 16;
  EtcConfig etc;
  ArrivalConfig arrival;
  SecurityProfile security = SecurityProfile::paper();
  /// Site up/down churn process (disabled by default). When enabled the
  /// generated workload carries per-site MTBF/MTTR parameters and the
  /// kernel's churn handlers draw their timelines.
  ChurnConfig churn;
  /// Node counts cycled over the sites ({16, 8, 8} -> site 0 has 16 nodes,
  /// sites 1-2 have 8, site 3 has 16 again, ...). Must be non-empty.
  std::vector<unsigned> site_node_pattern = {1};
  /// Job node-request distribution over powers of two {1, 2, 4, ...};
  /// requests are capped at the largest site. {1.0} -> all sequential.
  /// Entries must be finite and >= 0 with a positive sum.
  std::vector<double> size_weights = {1.0};
  /// Rescale job work so mean exec on a mean-speed site hits this many
  /// seconds (0 disables rescaling and keeps the raw ETC magnitudes).
  double mean_exec_seconds = 600.0;
};

/// Build the grid and the rank-1 fit of the raw ETC matrix without holding
/// the matrix (its rows are generated one at a time into the fit), and
/// return the jobs as a cursor that yields each job's arrival, fitted
/// `work`, node request, demand and raw ETC row (regenerated, calibrated
/// and checked finite and > 0) as the kernel admits it. Throws
/// std::invalid_argument on degenerate configs, naming the field for the
/// security profile and the ETC ranges; a bad row throws from next(). The
/// cursor holds the fitted work (8 B per job) and one row.
StreamWorkload synth_stream(const SynthConfig& config, std::uint64_t seed);

/// The same workload materialised: materialize_stream(synth_stream(...)).
/// The generated matrix is `exec.matrix_cells()` (the cursor's rows in
/// stream order); the rank-1 fit behind it is each job's `work` and each
/// site's `speed`.
Workload synth_workload(const SynthConfig& config, std::uint64_t seed);

/// Node request: a power of two {1, 2, 4, ...} picked by `size_weights`
/// (which sum to `weight_total`), capped at `max_nodes`. Shared by the
/// materialised and streaming generators.
unsigned draw_nodes(const std::vector<double>& size_weights,
                    double weight_total, unsigned max_nodes, util::Rng& rng);

}  // namespace gridsched::workload::synth
