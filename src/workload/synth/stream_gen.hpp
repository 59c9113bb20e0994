// Streaming synthetic workload generator: the million-job counterpart of
// synth_stream (synth.hpp). Where synth_stream fits an n_jobs x n_sites
// ETC matrix, holds the fitted work of every job and regenerates each
// job's ETC row as it is pulled, this builds only the grid —
// sites, trust levels, churn parameters are O(sites) — and hands the jobs
// to the kernel as a workload::JobStream cursor that draws one job per
// pull. Execution times resolve through the rank-1 work/speed fallback
// (no matrix), so total generator state is O(sites) + a handful of RNG
// streams no matter how many jobs the scenario asks for.
//
// Determinism: every component draws from its own util::Rng child stream
// of (seed), and jobs are drawn strictly in arrival order, so the stream
// is a pure function of (config, seed) — the same contract as the
// materialised generators. Arrivals are a homogeneous Poisson clock
// (incremental exponential gaps); other processes are rejected.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/stream.hpp"
#include "workload/synth/arrival.hpp"
#include "workload/synth/churn.hpp"
#include "workload/synth/security_profile.hpp"
#include "workload/workload.hpp"

namespace gridsched::workload::synth {

struct SynthStreamConfig {
  std::string name = "synth-stream";
  std::size_t n_jobs = 100000;
  std::size_t n_sites = 100;
  /// Node counts cycled over the sites (same convention as SynthConfig).
  std::vector<unsigned> site_node_pattern = {16, 4, 8, 4, 4};
  /// Job node-request distribution over powers of two {1, 2, 4, ...};
  /// entries must be finite and >= 0 with a positive sum.
  std::vector<double> size_weights = {0.4, 0.25, 0.2, 0.1, 0.05};
  /// Site speeds ~ U[speed_lo, speed_hi] (rank-1 execution model).
  double speed_lo = 0.8;
  double speed_hi = 1.25;
  /// Arrival process; must be kPoisson (see file comment).
  ArrivalConfig arrival;
  SecurityProfile security = SecurityProfile::paper();
  ChurnConfig churn;
  /// Mean job execution time on a speed-1 site; work ~ U[0.5, 1.5] x this.
  double mean_exec_seconds = 600.0;
};

/// A generated streaming workload: the grid is concrete, the jobs are a
/// cursor. Move-only (the stream is single-pass). Produced by
/// stream_workload (rank-1: the cursor yields no rows) and by synth_stream
/// (synth.hpp), whose cursor yields each job's raw ETC row.
struct StreamWorkload {
  std::string name;
  std::vector<sim::SiteConfig> sites;
  std::unique_ptr<JobStream> jobs;
  std::vector<sim::SiteChurnParams> churn;
};

/// Build the grid and the job cursor. Throws std::invalid_argument on
/// degenerate configs or a non-Poisson arrival process.
StreamWorkload stream_workload(const SynthStreamConfig& config,
                               std::uint64_t seed);

/// Drain a streaming workload into a materialised Workload (synth_workload,
/// CLI trace export, training paths). Pulls every remaining job, numbering
/// them by stream position, and gathers the cursor's rows (if it yields
/// any) into the workload's ETC matrix — O(n_jobs) memory, for
/// small/medium configs.
Workload materialize_stream(StreamWorkload&& stream);

}  // namespace gridsched::workload::synth
