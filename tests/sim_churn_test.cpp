// Site-churn process + pluggable-kernel tests: hand-checked mid-run
// revocation timelines (scripted outages composed directly onto a
// SimKernel), availability-mask visibility, protocol enforcement, counter
// accounting and end-to-end determinism of the stochastic churn process.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "exp/scenario_registry.hpp"
#include "sched/heuristics.hpp"
#include "sim/engine.hpp"
#include "sim/process/arrival_process.hpp"
#include "sim/process/batch_cycle_process.hpp"
#include "sim/process/security_failure_process.hpp"
#include "sim/process/site_churn_process.hpp"

namespace gridsched::sim {
namespace {

Job make_job(Time arrival, double work, unsigned nodes, double demand) {
  Job job;
  job.arrival = arrival;
  job.work = work;
  job.nodes = nodes;
  job.demand = demand;
  return job;
}

EngineConfig quick_config(Time interval = 50.0) {
  EngineConfig config;
  config.batch_interval = interval;
  config.detection = FailureDetection::kAtEnd;
  return config;
}

/// Scripted scheduler: assigns every batch job to a fixed site per call,
/// following a site sequence (last entry repeats). By default it honours
/// the availability mask (a masked target => assign nothing, like a real
/// scheduler would); `respect_mask = false` probes protocol enforcement.
class ScriptedScheduler final : public BatchScheduler {
 public:
  explicit ScriptedScheduler(std::vector<SiteId> sequence,
                             bool respect_mask = true)
      : sequence_(std::move(sequence)), respect_mask_(respect_mask) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }

  void schedule_into(const SchedulerContext& context,
                     std::vector<Assignment>& out) override {
    const SiteId site = sequence_[std::min(call_, sequence_.size() - 1)];
    ++call_;
    out.clear();
    if (respect_mask_ && !context.site_usable(site)) return;
    for (std::size_t j = 0; j < context.jobs.size(); ++j) out.push_back({j,
                                                                         site});
  }

 private:
  std::vector<SiteId> sequence_;
  std::size_t call_ = 0;
  bool respect_mask_ = true;
};

/// Wraps a scheduler and records the site mask it was shown per call.
class MaskProbeScheduler final : public BatchScheduler {
 public:
  explicit MaskProbeScheduler(BatchScheduler& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule_into(const SchedulerContext& context,
                     std::vector<Assignment>& out) override {
    masks.push_back(context.site_up);
    inner_.schedule_into(context, out);
  }
  std::vector<std::vector<std::uint8_t>> masks;

 private:
  BatchScheduler& inner_;
};

/// Run a kernel with the standard process set plus a scripted churn
/// timeline — the composition the Engine facade cannot express.
void run_with_outages(SimKernel& kernel, BatchScheduler& scheduler,
                      std::vector<SiteOutage> outages) {
  ArrivalProcess arrival;
  SecurityFailureProcess failure;
  BatchCycleProcess batch(scheduler, failure);
  SiteChurnProcess churn(std::move(outages));
  kernel.add_process(arrival);
  kernel.add_process(batch);
  kernel.add_process(failure);
  kernel.add_process(churn);
  kernel.run();
}

TEST(SiteChurn, HandCheckedMidRunRevocation) {
  // One 1-node site; job runs [50, 150); the site dies at t=100 and
  // recovers at t=120. The attempt is revoked at 100 (its reserved tail
  // released back to t=100), the job re-enters the queue, the t=100 cycle
  // sees a fully masked grid and assigns nothing, and the t=150 cycle
  // re-dispatches for a [150, 250) run.
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  ScriptedScheduler scheduler({0});
  run_with_outages(kernel, scheduler, {{0, 100.0, 120.0}});

  const Job& job = kernel.jobs()[0];
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_EQ(job.attempts, 2u);
  EXPECT_EQ(job.failures, 0u);
  EXPECT_EQ(job.interruptions, 1u);
  EXPECT_FALSE(job.secure_only);  // an outage is not a security failure
  EXPECT_DOUBLE_EQ(job.first_start, 50.0);
  EXPECT_DOUBLE_EQ(job.last_start, 150.0);
  EXPECT_DOUBLE_EQ(job.finish, 250.0);
  EXPECT_DOUBLE_EQ(kernel.makespan(), 250.0);

  const EngineCounters& counters = kernel.counters();
  EXPECT_EQ(counters.completed_jobs, 1u);
  EXPECT_EQ(counters.site_down_events, 1u);
  EXPECT_EQ(counters.site_up_events, 1u);
  EXPECT_EQ(counters.interrupted_attempts, 1u);
  EXPECT_EQ(counters.churn_released_nodes, 1u);
  EXPECT_EQ(counters.churn_unreleased_nodes, 0u);
  EXPECT_EQ(counters.failure_events, 0u);
  // Cycles at 50 (dispatch), 100 (masked grid, no assignment), 150.
  EXPECT_EQ(counters.batch_invocations, 3u);
  // 50 s burned before the outage + the full 100 s success.
  EXPECT_DOUBLE_EQ(kernel.sites()[0].busy_node_seconds(), 150.0);
}

TEST(SiteChurn, RevocationReleasesStackedReservationsLatestFirst) {
  // Two jobs stacked on the same node: A holds [50, 150), B [150, 160).
  // At the t=100 outage the node's free time equals B's window end, so B's
  // tail is reclaimable (released) while A's window end no longer matches
  // — surfaced as an unreleased node, exactly like a failure release that
  // lost the race with a later reservation.
  SimKernel kernel({{0, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.5), make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(50.0));
  ScriptedScheduler scheduler({0});
  run_with_outages(kernel, scheduler, {{0, 100.0, 120.0}});

  const Job& a = kernel.jobs()[0];
  const Job& b = kernel.jobs()[1];
  EXPECT_EQ(a.interruptions, 1u);
  EXPECT_EQ(b.interruptions, 1u);
  const EngineCounters& counters = kernel.counters();
  EXPECT_EQ(counters.interrupted_attempts, 2u);
  EXPECT_EQ(counters.churn_released_nodes, 1u);
  EXPECT_EQ(counters.churn_unreleased_nodes, 1u);
  // Revocation re-queues latest-window-first: the t=150 batch is [B, A],
  // so B runs [150, 160) and A [160, 260).
  EXPECT_DOUBLE_EQ(b.finish, 160.0);
  EXPECT_DOUBLE_EQ(a.finish, 260.0);
  EXPECT_EQ(counters.completed_jobs, 2u);
}

TEST(SiteChurn, SchedulersSeeTheAvailabilityMask) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  ScriptedScheduler inner({0});
  MaskProbeScheduler probe(inner);
  run_with_outages(kernel, probe, {{0, 100.0, 120.0}});

  ASSERT_EQ(probe.masks.size(), 3u);
  EXPECT_EQ(probe.masks[0], std::vector<std::uint8_t>({1}));  // t=50
  EXPECT_EQ(probe.masks[1], std::vector<std::uint8_t>({0}));  // t=100: down
  EXPECT_EQ(probe.masks[2], std::vector<std::uint8_t>({1}));  // t=150: back
}

TEST(SiteChurn, AssigningToADownSiteIsAProtocolViolation) {
  // The scripted scheduler ignores the mask and keeps targeting site 0
  // while it is down at the t=100 cycle; the kernel must reject that.
  SimKernel kernel({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.5), make_job(60.0, 10.0, 1, 0.5)},
                   quick_config(50.0));
  ScriptedScheduler scheduler({0}, /*respect_mask=*/false);
  EXPECT_THROW(run_with_outages(kernel, scheduler, {{0, 90.0, 500.0}}),
               std::logic_error);
}

TEST(SiteChurn, InterruptedSecureOnlyRetryStaysSecureOnly) {
  // The job certain-fails on the risky site (fail-stop => secure_only),
  // retries on the safe site at t=100, is interrupted at t=150 and must
  // still be a secure_only retry afterwards: the scripted scheduler sends
  // it back to the safe site, where it completes.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  config.detection = FailureDetection::kImmediate;
  SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 1, 1});
  run_with_outages(kernel, scheduler, {{1, 150.0, 160.0}});

  const Job& job = kernel.jobs()[0];
  EXPECT_EQ(job.failures, 1u);
  EXPECT_EQ(job.interruptions, 1u);
  EXPECT_EQ(job.attempts, 3u);
  EXPECT_TRUE(job.secure_only);
  EXPECT_EQ(job.final_site, 1u);
  EXPECT_DOUBLE_EQ(job.finish, 300.0);  // retry [100,200) cut at 150; [200,300)
  EXPECT_EQ(kernel.counters().failure_events, 1u);
  EXPECT_EQ(kernel.counters().interrupted_attempts, 1u);
}

TEST(SiteChurn, StaleEndEventOfARevokedAttemptIsDropped) {
  // The revoked attempt's kJobEnd (t=150) pops after the job has already
  // been re-dispatched at the t=150 cycle with a new attempt serial; the
  // stale end must not complete (or double-complete) the job.
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  ScriptedScheduler scheduler({0});
  run_with_outages(kernel, scheduler, {{0, 100.0, 120.0}});
  EXPECT_EQ(kernel.counters().completed_jobs, 1u);
  EXPECT_EQ(kernel.jobs()[0].attempts, 2u);
  EXPECT_DOUBLE_EQ(kernel.jobs()[0].finish, 250.0);
}

TEST(SiteChurn, ScriptedOutageValidation) {
  EXPECT_THROW(SiteChurnProcess({SiteOutage{0, 100.0, 100.0}}),
               std::invalid_argument);
  EXPECT_THROW(SiteChurnProcess({SiteOutage{0, -1.0, 10.0}}),
               std::invalid_argument);
  // Overlapping outages for one site are rejected (a boolean mask cannot
  // represent nested downtime); the same windows on distinct sites are
  // fine, as are back-to-back outages sharing an endpoint.
  EXPECT_THROW(
      SiteChurnProcess({SiteOutage{0, 10.0, 100.0}, SiteOutage{0, 50.0,
                                                               200.0}}),
      std::invalid_argument);
  EXPECT_NO_THROW(SiteChurnProcess(
      {SiteOutage{0, 10.0, 100.0}, SiteOutage{1, 50.0, 200.0}}));
  EXPECT_NO_THROW(SiteChurnProcess(
      {SiteOutage{0, 10.0, 100.0}, SiteOutage{0, 100.0, 200.0}}));
}

TEST(SiteChurn, EngineFacadeRunsStochasticChurnDeterministically) {
  // Same workload + seed => bit-identical outcome, including every churn
  // counter; a different engine seed draws a different churn timeline.
  auto run = [](std::uint64_t engine_seed) {
    exp::Scenario scenario = exp::make_scenario("synth-churn-hi", 150);
    workload::Workload workload = exp::make_workload(scenario, 7);
    EXPECT_EQ(workload.churn.size(), workload.sites.size());
    sim::EngineConfig config = scenario.engine;
    config.seed = engine_seed;
    Engine engine(workload.sites, workload.jobs, config, workload.exec,
                  workload.churn);
    sched::MinMinScheduler scheduler(security::RiskPolicy::risky());
    engine.run(scheduler);
    std::vector<double> finishes;
    for (const Job& job : engine.jobs()) finishes.push_back(job.finish);
    return std::pair(finishes, engine.counters().site_down_events);
  };
  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run(12);
  EXPECT_NE(a.first, c.first);
}

TEST(SiteChurn, ChurnFreeWorkloadNeverRegistersTheProcess) {
  // An all-zero churn vector must behave exactly like no churn vector.
  std::vector<SiteChurnParams> no_churn(1);
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                quick_config(50.0), {}, no_churn);
  ScriptedScheduler scheduler({0});
  engine.run(scheduler);
  EXPECT_EQ(engine.counters().site_down_events, 0u);
  EXPECT_DOUBLE_EQ(engine.jobs()[0].finish, 60.0);
}

TEST(SimKernel, RejectsDoubleRoutingOfAnEventKind) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, std::vector<Job>{},
                   quick_config(50.0));
  ArrivalProcess a;
  ArrivalProcess b;
  kernel.add_process(a);
  EXPECT_THROW(kernel.add_process(b), std::logic_error);
}

TEST(SimKernel, UnroutedEventKindThrows) {
  // A kernel missing the batch/failure processes cannot make progress on
  // a job arrival's requested cycle.
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(50.0));
  ArrivalProcess arrival;
  kernel.add_process(arrival);
  EXPECT_THROW(kernel.run(), std::logic_error);
}

}  // namespace
}  // namespace gridsched::sim
