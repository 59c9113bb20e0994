// Experiment execution: one run (with the STGA training phase when the
// algorithm asks for it), bit-reproducible in (scenario, spec, seed).
// Replication lives in the campaign runner (exp/campaign/), which pairs
// every policy of a replication on one seed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ga_engine.hpp"
#include "exp/roster.hpp"
#include "exp/scenario.hpp"
#include "metrics/metrics.hpp"
#include "sim/observer.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace gridsched::exp {

/// Optional observation hooks for one run. Both pointers are non-owning
/// and may be null; hooks attach to the *measured* engine run only (the
/// STGA training phase stays unobserved — it is scaffolding, not the
/// simulation under study). Attaching hooks never changes the metrics.
struct RunHooks {
  /// Passive kernel observer (trace recorder, metric collector, ...).
  sim::KernelObserver* observer = nullptr;
  /// Receives one GaProfile per scheduler invocation when the algorithm
  /// is GA-based (ignored for heuristic specs).
  std::vector<core::GaProfile>* ga_profiles = nullptr;
  /// Cooperative cancel token (non-owning; may be null). Polled at every
  /// kernel batch cycle — including the STGA training phase's engines —
  /// and once per GA generation; a cancelled/expired token aborts the run
  /// with util::CancelledError before any metrics are produced. Unlike
  /// the passive hooks above, the token can end the run early; it never
  /// changes the results of a run it lets finish.
  const util::CancelToken* cancel = nullptr;
};

/// Build the workload, (optionally) run the training phase, simulate,
/// measure. Synth scenarios feed the kernel their generator cursor (a
/// kSynth run whose algorithm trains materializes, since training
/// resamples the main workload's rows); nas, psa and that kSynth run are
/// materialized and wrapped, with their ETC matrix if any, in a
/// workload::MaterializedStream. The unnamed 4th parameter is
/// ignored (GA fitness is always serial); it stays until
/// perfbench/harness.cpp stops passing `/*ga_pool=*/nullptr`.
metrics::RunMetrics run_once(const Scenario& scenario,
                             const AlgorithmSpec& spec,
                             std::uint64_t seed,
                             util::ThreadPool* = nullptr,
                             const RunHooks& hooks = {});

}  // namespace gridsched::exp
