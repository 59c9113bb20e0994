// Steady-state allocation guard for the streaming kernel: once the event
// loop has warmed its buffers (slot table, event queue, pending queue,
// scheduler context, scheduler scratch), running the hot loop —
// admissions, scheduling, dispatches, completions, retirements, slot
// recycling and, under site churn, revocations through the live-attempt
// index, and each admitted job's ETC row copied into the kernel's row
// table — must perform ZERO heap allocations. Pinned with the same
// binary-wide counting allocator the decode fast path uses
// (decode_harness.hpp; this must stay the only translation unit in this
// binary including it). The synthetic ETC generator's per-call allocation
// count, and a synth run's live-heap high-water mark and ETC row pool, are
// pinned here too.
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
  /// A kSynth cursor instead of the rank-1 stream: it yields each job's
  /// raw ETC row, which the kernel copies into its row pool.
  bool etc_rows = false;
};

/// The kernel a probe runs: its workload, from a generator cursor or a
/// drained job vector.
std::unique_ptr<sim::SimKernel> probe_kernel(const AllocProbe& probe) {
  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  if (probe.etc_rows) {
    // The rank-1 probe's grid, arrival rate and job sizes, with an
    // inconsistent ETC whose narrow ranges keep execution times about as
    // even as its U[0.5, 1.5] work on U[0.8, 1.25] speeds.
    workload::synth::SynthConfig config;
    config.name = "alloc-probe-rows";
    config.n_jobs = probe.n_jobs;
    config.n_sites = probe.n_sites;
    config.site_node_pattern = {16, 4, 8, 4, 4};
    config.size_weights = {0.4, 0.25, 0.2, 0.1, 0.05};
    config.arrival.rate = 0.01 * static_cast<double>(probe.n_sites);
    config.etc.consistency = workload::synth::EtcConsistency::kInconsistent;
    config.etc.task_heterogeneity = workload::synth::Heterogeneity::kLo;
    config.etc.machine_heterogeneity = workload::synth::Heterogeneity::kLo;
    config.etc.task_range_lo = 3.0;
    config.etc.machine_range_lo = 1.5;
    workload::synth::StreamWorkload stream =
        workload::synth::synth_stream(config, 13);
    EXPECT_EQ(stream.jobs->row_sites(), stream.sites.size());
    return std::make_unique<sim::SimKernel>(
        std::move(stream.sites), std::move(stream.jobs), engine_config,
        std::move(stream.churn));
  }
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
  if (probe.streamed) {
    return std::make_unique<sim::SimKernel>(
        std::move(stream.sites), std::move(stream.jobs), engine_config,
        std::move(stream.churn));
  }
  workload::Workload drained =
      workload::synth::materialize_stream(std::move(stream));
  return std::make_unique<sim::SimKernel>(
      std::move(drained.sites), std::move(drained.jobs), engine_config,
      std::move(drained.churn));
}

/// Runs `probe`'s workload through `scheduler` and returns the allocation
/// counts sampled at every batch cycle.
std::vector<std::uint64_t> alloc_samples(sim::BatchScheduler& scheduler,
                                         const AllocProbe& probe) {
  const std::unique_ptr<sim::SimKernel> kernel = probe_kernel(probe);
  AllocSampleObserver observer;
  kernel->set_observer(&observer);
  kernel->run(scheduler);

  EXPECT_EQ(kernel->retired_jobs(), probe.n_jobs);
  if (probe.churn) {
    EXPECT_GT(kernel->counters().interrupted_attempts, 0u)
        << "churn probe revoked nothing; the victim path went unexercised";
  }
  if (probe.etc_rows) {
    EXPECT_GT(kernel->row_table_bytes(), 0u);
    EXPECT_LE(kernel->row_table_bytes(),
              kernel->peak_slots() * kernel->sites().size() * sizeof(double))
        << "the row pool outgrew the slot table";
  } else {
    EXPECT_EQ(kernel->row_table_bytes(), 0u);
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

// A kSynth cursor yields each job's raw ETC row; the kernel copies it into
// a row pool whose rows return to it as jobs complete, so the
// row-streaming loop stays heap-free too once the pool has reached its
// high-water mark (jobs with rows bypass the site trees, so MCT scans
// every site).
TEST(StreamKernelAlloc, EtcRowStreamingMctSteadyStateIsAllocationFree) {
  AllocProbe probe;
  probe.etc_rows = true;
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
}

TEST(StreamKernelAlloc, EtcRowStreamingMinMinSteadyStateIsAllocationFree) {
  AllocProbe probe;
  probe.etc_rows = true;
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_steady_state_allocation_free(alloc_samples(scheduler, probe));
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

/// Records the run's slot high-water mark (the kernel's O(active) part)
/// and the size of its ETC row pool.
class PeakSlotObserver final : public sim::KernelObserver {
 public:
  void on_run_end(const sim::SimKernel& kernel) override {
    peak_slots = kernel.peak_slots();
    row_table_bytes = kernel.row_table_bytes();
  }
  std::size_t peak_slots = 0;
  std::size_t row_table_bytes = 0;
};

/// The churn-backlog shape: synth-churn-hi, 50 000 jobs at 0.02 jobs/s.
constexpr std::size_t kBacklogJobs = 50000;

exp::Scenario backlog_scenario() {
  exp::Scenario scenario = exp::make_scenario("synth-churn-hi", kBacklogJobs);
  scenario.synth.arrival.rate = 0.02;
  return scenario;
}

// A synth run streams its jobs and their ETC rows: while run_once runs the
// churn-backlog shape (MCT f-risky), the live heap stays below 24 B per
// job, with no term for the jobs x sites matrix, which no longer exists in
// a streamed run. The run holds the cursor's fitted work (8 B per job),
// the kernel's slot table and its row pool (one 128 B row per incomplete
// job on 16 sites); a run that materializes the workload also holds the
// 6.1 MiB matrix and a 96 B sim::Job per job. The slot table grows with the
// backlog, not the job count. At seed 7 about 500 slots are live; at other
// seeds in-order retirement lets one straggler pin tens of thousands (a
// known kernel limit this bound does not cover; see the next test), so
// the slot high-water is checked first and names which part failed.
TEST(SynthRunFootprint, LiveHeapStaysBelow24BytesPerJob) {
  const exp::Scenario scenario = backlog_scenario();
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

  ASSERT_EQ(run.n_jobs, kBacklogJobs);
  ASSERT_LT(slots.peak_slots, kBacklogJobs / 50)
      << "the slot table, not the workload, holds the heap";
  EXPECT_GT(slots.row_table_bytes, 0u) << "the run did not stream ETC rows";
  EXPECT_LT(peak, 24 * kBacklogJobs)
      << "live-heap high-water " << peak << " B is " << peak / kBacklogJobs
      << " B per job";
}

// At seed 20050419 one straggler pins ~41 000 slots (the in-order
// retirement limit above). The kernel's row pool never exceeds
// peak_slots x n_sites x 8 B, and since a row returns to the pool when its
// job completes, not when the frontier retires the slot, the pinned slots
// pin no rows: the pool stays near the live backlog (about 600 rows),
// far below the jobs x sites matrix a materialized run holds.
TEST(SynthRunFootprint, StragglerSeedRowTableStaysBelowPeakSlots) {
  const exp::Scenario scenario = backlog_scenario();
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("mct", security::RiskPolicy::f_risky(0.5));
  PeakSlotObserver slots;
  exp::RunHooks hooks;
  hooks.observer = &slots;
  const metrics::RunMetrics run =
      exp::run_once(scenario, spec, 20050419, nullptr, hooks);

  ASSERT_EQ(run.n_jobs, kBacklogJobs);
  const std::size_t row_bytes = scenario.synth.n_sites * sizeof(double);
  EXPECT_GT(slots.row_table_bytes, 0u) << "the run did not stream ETC rows";
  EXPECT_LE(slots.row_table_bytes, slots.peak_slots * row_bytes);
  EXPECT_LT(slots.row_table_bytes, kBacklogJobs / 50 * row_bytes)
      << slots.row_table_bytes / row_bytes << " rows for "
      << slots.peak_slots << " slots";
}

}  // namespace
}  // namespace gridsched
