// End-to-end experiment scenarios matching the paper's two testbeds
// (Table 1), with the batch intervals README "Model parameters" lists.
#pragma once

#include <cstdint>

#include "sim/kernel.hpp"
#include "workload/nas.hpp"
#include "workload/psa.hpp"
#include "workload/synth/stream_gen.hpp"
#include "workload/synth/synth.hpp"
#include "workload/workload.hpp"

namespace gridsched::exp {

enum class ScenarioKind { kNas, kPsa, kSynth, kSynthStream };

struct Scenario {
  ScenarioKind kind = ScenarioKind::kPsa;
  workload::NasTraceConfig nas;
  workload::PsaConfig psa;
  workload::synth::SynthConfig synth;
  /// Streaming generator config (kSynthStream only): jobs are drawn as
  /// the kernel admits them and there is no ETC matrix, so these scenarios
  /// scale to millions of jobs in O(active) memory.
  workload::synth::SynthStreamConfig stream;
  sim::EngineConfig engine;
  /// Training jobs for STGA-style schedulers (paper Table 1: 500).
  std::size_t training_jobs = 500;
};

/// NAS trace testbed: 16 000 jobs / 12 sites / 46 days, 4000 s batches.
Scenario nas_scenario(std::size_t n_jobs = 16000);

/// PSA testbed: N jobs / 20 sites, 2000 s batches.
Scenario psa_scenario(std::size_t n_jobs = 1000);

/// Synthetic testbed from an explicit generator config, 2000 s batches.
Scenario synth_scenario(workload::synth::SynthConfig config);

/// Streaming synthetic testbed (kSynthStream), 2000 s batches.
Scenario synth_stream_scenario(workload::synth::SynthStreamConfig config);

/// Materialise the scenario's workload; deterministic in (scenario, seed).
/// The synth kinds are make_stream_workload drained into a job vector
/// here; the runner takes the cursor itself, so its runs never hold one.
workload::Workload make_workload(const Scenario& scenario, std::uint64_t seed);

/// The streaming workload of a kSynth or kSynthStream scenario (grid + job
/// cursor); throws std::invalid_argument for nas and psa.
workload::synth::StreamWorkload make_stream_workload(const Scenario& scenario,
                                                     std::uint64_t seed);

/// A reduced copy of the scenario used for the STGA training phase
/// (`n_jobs` jobs over a proportionally shorter horizon) that reuses the
/// main run's sites so availability/security signatures are comparable.
workload::Workload make_training_workload(const Scenario& scenario,
                                          const workload::Workload& main,
                                          std::size_t n_jobs,
                                          std::uint64_t seed);

}  // namespace gridsched::exp
