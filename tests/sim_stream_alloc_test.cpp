// Steady-state allocation guard for the streaming kernel: once the event
// loop has warmed its buffers (slot table, event queue, pending queue,
// scheduler context, scheduler scratch), running the hot loop —
// admissions, scheduling, dispatches, completions, retirements, slot
// recycling and, under site churn, revocations through the live-attempt
// index — must perform ZERO heap allocations. Pinned with the same
// binary-wide counting allocator the decode fast path uses
// (decode_harness.hpp; this must stay the only translation unit in this
// binary including it). The synthetic ETC generator's per-call allocation
// count, and a synth run's live-heap high-water mark, are pinned here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "decode_harness.hpp"  // counting allocator (one TU per binary!)
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "metrics/metrics.hpp"
#include "sched/heuristics.hpp"
#include "security/security.hpp"
#include "sim/kernel.hpp"
#include "sim/scheduling.hpp"
#include "workload/synth/etc_gen.hpp"
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

/// One allocation-probe run: a synthetic stream at ~70% load.
struct AllocProbe {
  std::size_t n_jobs = 6000;
  std::size_t n_sites = 20;
  bool streamed = true;  ///< generator cursor (else a drained job vector)
  bool churn = false;    ///< stochastic site churn (revocations)
};

/// Runs `probe`'s workload through `scheduler` and returns the allocation
/// counts sampled at every batch cycle.
std::vector<std::uint64_t> alloc_samples(sim::BatchScheduler& scheduler,
                                         const AllocProbe& probe) {
  workload::synth::SynthStreamConfig config;
  config.name = "alloc-probe";
  config.n_jobs = probe.n_jobs;
  config.n_sites = probe.n_sites;
  // ~70% load on the default site pattern (0.2 jobs/s per 20 sites).
  config.arrival.rate = 0.01 * static_cast<double>(probe.n_sites);
  if (probe.churn) {
    // ~10% downtime: a few outages per site over the run, each revoking
    // that site's running and stacked reservations.
    config.churn.enabled = true;
    config.churn.mtbf_mean = 6000.0;
    config.churn.mttr_mean = 600.0;
  }
  workload::synth::StreamWorkload stream =
      workload::synth::stream_workload(config, 13);

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  std::unique_ptr<sim::SimKernel> kernel;
  if (probe.streamed) {
    kernel = std::make_unique<sim::SimKernel>(
        std::move(stream.sites), std::move(stream.jobs), engine_config,
        std::move(stream.exec), std::move(stream.churn));
  } else {
    workload::Workload drained =
        workload::synth::materialize_stream(std::move(stream));
    kernel = std::make_unique<sim::SimKernel>(
        std::move(drained.sites), std::move(drained.jobs), engine_config,
        std::move(drained.exec), std::move(drained.churn));
  }
  AllocSampleObserver observer;
  kernel->set_observer(&observer);
  kernel->run(scheduler);

  EXPECT_EQ(kernel->retired_jobs(), probe.n_jobs);
  if (probe.churn) {
    EXPECT_GT(kernel->counters().interrupted_attempts, 0u)
        << "churn probe revoked nothing; the victim path went unexercised";
  }
  return std::move(observer.samples);
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
  expect_steady_state_allocation_free(alloc_samples(scheduler, {}));
}

// The shipped heuristics keep their working state (availability copy,
// pending list, per-job best-site cache) in per-scheduler scratch reused
// across cycles, so real MCT and Min-Min runs are heap-free in steady
// state too — f-risky exercises the deferred admissibility path.
TEST(StreamKernelAlloc, MctSteadyStateIsAllocationFree) {
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, {}));
}

// 128 rank-1 sites put MCT on its branch-and-bound site trees
// (sched::SiteTree), rebuilt every cycle into the same scratch.
TEST(StreamKernelAlloc, WideMctSteadyStateIsAllocationFree) {
  AllocProbe probe;
  probe.n_sites = 128;
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
}

TEST(StreamKernelAlloc, MinMinSteadyStateIsAllocationFree) {
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, {}));
}

TEST(StreamKernelAlloc, MaterializedVectorSteadyStateIsAllocationFree) {
  // The same guard for a materialized job vector (SimKernel's vector
  // overload): only the input source differs from the generator cursor.
  AllocProbe probe;
  probe.n_jobs = 3000;
  probe.streamed = false;
  GreedyIntoScheduler scheduler;
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
}

// Site churn adds the revocation path: the per-site live-attempt index
// (start/stop/revoke) and the churn process's victims_ buffer must stop
// touching the heap once their high-water marks are reached, whichever
// source feeds the jobs.
TEST(StreamKernelAlloc, ChurnedMctSteadyStateIsAllocationFree) {
  AllocProbe probe;
  probe.churn = true;
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
}

TEST(StreamKernelAlloc, ChurnedMaterializedMctSteadyStateIsAllocationFree) {
  AllocProbe probe;
  probe.n_jobs = 3000;
  probe.streamed = false;
  probe.churn = true;
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
}

// The ETC generator allocates per call (cells, sorting network, row
// buffer), never per row: 100 and 10 000 tasks cost the same number of
// heap allocations in every consistency class.
TEST(EtcGenAlloc, AllocationCountIsIndependentOfTaskCount) {
  const auto allocations = [](std::size_t tasks,
                              workload::synth::EtcConsistency consistency) {
    workload::synth::EtcConfig config;
    config.consistency = consistency;
    util::Rng rng(5);
    const std::uint64_t before = allocation_count();
    const workload::synth::EtcMatrixData etc =
        workload::synth::generate_etc(tasks, 16, config, rng);
    return allocation_count() - before;
  };
  for (const auto consistency :
       {workload::synth::EtcConsistency::kConsistent,
        workload::synth::EtcConsistency::kSemiConsistent,
        workload::synth::EtcConsistency::kInconsistent}) {
    SCOPED_TRACE(workload::synth::to_string(consistency));
    EXPECT_EQ(allocations(100, consistency), allocations(10000, consistency));
  }
}

/// Records the run's slot high-water mark (the kernel's O(active) part).
class PeakSlotObserver final : public sim::KernelObserver {
 public:
  void on_run_end(const sim::SimKernel& kernel) override {
    peak_slots = kernel.peak_slots();
  }
  std::size_t peak_slots = 0;
};

// A synth run streams its jobs: while run_once runs the churn-backlog shape
// (synth-churn-hi, 50 000 jobs at 0.02 jobs/s, MCT f-risky), the live heap
// stays below the raw ETC matrix plus 48 B per job. The run holds the
// matrix, the cursor's fitted work (8 B per job) and the kernel's slot
// table; a run that materializes the workload also holds a 96 B sim::Job
// per job, about ETC + 110 B per job in all. The slot table grows with
// the backlog, not the job count. At seed 7 about 500 slots are live; at
// other seeds in-order retirement lets one straggler pin tens of
// thousands (a known kernel limit this bound does not cover), so the slot
// high-water is checked first and names which part failed.
TEST(SynthRunFootprint, LiveHeapStaysBelowTheMatrixPlus48BytesPerJob) {
  constexpr std::size_t kJobs = 50000;
  exp::Scenario scenario = exp::make_scenario("synth-churn-hi", kJobs);
  scenario.synth.arrival.rate = 0.02;
  ASSERT_EQ(scenario.kind, exp::ScenarioKind::kSynth);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("mct", security::RiskPolicy::f_risky(0.5));
  PeakSlotObserver slots;
  exp::RunHooks hooks;
  hooks.observer = &slots;

  const std::uint64_t before = bench::live_bytes();
  bench::reset_peak_live_bytes();
  const metrics::RunMetrics run =
      exp::run_once(scenario, spec, 7, nullptr, hooks);
  const std::uint64_t peak = bench::peak_live_bytes() - before;

  ASSERT_EQ(run.n_jobs, kJobs);
  ASSERT_LT(slots.peak_slots, kJobs / 50)
      << "the slot table, not the workload, holds the heap";
  const std::uint64_t etc_bytes =
      kJobs * scenario.synth.n_sites * sizeof(double);
  EXPECT_LT(peak, etc_bytes + 48 * kJobs)
      << "live-heap high-water " << peak << " B is ETC " << etc_bytes
      << " B + " << (peak - etc_bytes) / kJobs << " B per job";
}

}  // namespace
}  // namespace gridsched
