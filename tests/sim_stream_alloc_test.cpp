// Steady-state allocation guard for the streaming kernel: once the event
// loop has warmed its buffers (slot table, event queue, pending queue,
// scheduler context, scheduler scratch), running the hot loop —
// admissions, scheduling, dispatches, completions, retirements, slot
// recycling — must perform ZERO heap allocations. Pinned with the same
// binary-wide counting allocator the decode fast path uses
// (decode_harness.hpp; this must stay the only translation unit in this
// binary including it).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "decode_harness.hpp"  // counting allocator (one TU per binary!)
#include "exp/scenario.hpp"
#include "metrics/metrics.hpp"
#include "sched/heuristics.hpp"
#include "security/security.hpp"
#include "sim/engine.hpp"
#include "sim/scheduling.hpp"
#include "workload/synth/stream_gen.hpp"

namespace gridsched {
namespace {

using bench::allocation_count;

/// Allocation-free batch scheduler: greedy first-usable-site placement
/// written through schedule_into into the kernel's persistent assignment
/// buffer. After warmup the buffer's capacity covers every later batch, so
/// scheduling contributes no heap traffic — isolating the kernel loop.
class GreedyIntoScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "greedy-into"; }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    out.clear();
    for (std::size_t j = 0; j < context.jobs.size(); ++j) {
      const sim::BatchJob& job = context.jobs[j];
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!context.site_usable(s)) continue;
        if (context.sites[s].nodes < job.nodes) continue;
        // Fail-stop retries must land on a safe site (kernel protocol).
        if (job.secure_only &&
            !security::is_safe(job.demand, context.sites[s].security)) {
          continue;
        }
        out.push_back({j, static_cast<sim::SiteId>(s)});
        break;
      }
    }
  }
};

/// Records the allocator count at every batch cycle (into pre-reserved
/// storage, so the observer itself never allocates mid-run).
class AllocSampleObserver final : public sim::KernelObserver {
 public:
  AllocSampleObserver() { samples.reserve(4096); }

  void on_cycle(const sim::SimKernel&, sim::Time, std::size_t, std::size_t,
                double) override {
    if (samples.size() < samples.capacity()) {
      samples.push_back(allocation_count());
    }
  }

  std::vector<std::uint64_t> samples;
};

/// Runs a 6000-job streamed workload through `scheduler` and returns the
/// allocation counts sampled at every batch cycle.
std::vector<std::uint64_t> stream_alloc_samples(
    sim::BatchScheduler& scheduler) {
  workload::synth::SynthStreamConfig config;
  config.name = "alloc-probe";
  config.n_jobs = 6000;
  config.n_sites = 20;
  config.arrival.rate = 0.2;  // ~70% load on the 20-site default pattern
  workload::synth::StreamWorkload stream =
      workload::synth::stream_workload(config, 13);

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  sim::Engine engine(std::move(stream.sites), std::move(stream.jobs),
                     engine_config, std::move(stream.exec),
                     std::move(stream.churn));
  AllocSampleObserver probe;
  engine.set_observer(&probe);
  engine.run(scheduler);

  EXPECT_EQ(engine.kernel().retired_jobs(), config.n_jobs);
  return std::move(probe.samples);
}

/// Every buffer high-water mark is deterministic (fixed seeds), so the
/// allocation count at two fixed cycles is deterministic too: after the
/// warmup half, the hot loop must not have touched the heap at all.
void expect_steady_state_allocation_free(
    const std::vector<std::uint64_t>& samples) {
  ASSERT_GE(samples.size(), 16u)
      << "run produced too few batch cycles to observe a steady state";
  const std::size_t half = samples.size() / 2;
  const std::uint64_t at_half = samples[half];
  const std::uint64_t at_end = samples.back();
  EXPECT_EQ(at_half, at_end)
      << (at_end - at_half) << " heap allocation(s) in the steady-state "
      << "event loop between cycle " << half << " and cycle "
      << (samples.size() - 1);
}

TEST(StreamKernelAlloc, SteadyStateEventLoopIsAllocationFree) {
  GreedyIntoScheduler scheduler;
  expect_steady_state_allocation_free(stream_alloc_samples(scheduler));
}

// The shipped heuristics keep their working state (availability copy,
// pending list, per-job best-site cache) in per-scheduler scratch reused
// across cycles, so real MCT and Min-Min runs are heap-free in steady
// state too — f-risky exercises the deferred admissibility path.
TEST(StreamKernelAlloc, MctSteadyStateIsAllocationFree) {
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(stream_alloc_samples(scheduler));
}

TEST(StreamKernelAlloc, MinMinSteadyStateIsAllocationFree) {
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(stream_alloc_samples(scheduler));
}

TEST(StreamKernelAlloc, RetainedModeSteadyStateIsAllocationFreeToo) {
  // The same guard for the retained kernel: the refactor shares the hot
  // loop between modes, so the vector-backed path must stay clean as well.
  workload::synth::SynthStreamConfig config;
  config.name = "alloc-probe-retained";
  config.n_jobs = 3000;
  config.n_sites = 20;
  config.arrival.rate = 0.2;
  workload::Workload drained = workload::synth::materialize_stream(
      workload::synth::stream_workload(config, 13));

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  sim::Engine engine(drained.sites, drained.jobs, engine_config, drained.exec,
                     drained.churn);
  AllocSampleObserver probe;
  engine.set_observer(&probe);
  GreedyIntoScheduler scheduler;
  engine.run(scheduler);

  ASSERT_GE(probe.samples.size(), 16u);
  const std::size_t half = probe.samples.size() / 2;
  EXPECT_EQ(probe.samples[half], probe.samples.back());
}

}  // namespace
}  // namespace gridsched
