// Site-churn tests: hand-checked mid-run revocation timelines (scripted
// outages handed to the SimKernel constructor), availability-mask
// visibility, protocol enforcement, counter accounting, end-to-end
// determinism of the stochastic churn process and consistency of the
// kernel's per-site live-attempt index.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario_registry.hpp"
#include "job_recorder.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"
#include "workload/stream.hpp"
#include "workload/synth/stream_gen.hpp"

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

std::unique_ptr<workload::JobStream> stream_of(std::vector<Job> jobs) {
  return std::make_unique<workload::MaterializedStream>(std::move(jobs));
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

/// A scripted churn timeline for the kernel constructor.
SiteChurn outages(std::vector<SiteOutage> script) { return script; }

TEST(SiteChurn, HandCheckedMidRunRevocation) {
  // One 1-node site; job runs [50, 150); the site dies at t=100 and
  // recovers at t=120. The attempt is revoked at 100 (its reserved tail
  // released back to t=100), the job re-enters the queue, the t=100 cycle
  // sees a fully masked grid and assigns nothing, and the t=150 cycle
  // re-dispatches for a [150, 250) run.
  SimKernel kernel({{0, 1, 1.0, 1.0}},
                   stream_of({make_job(0.0, 100.0, 1, 0.5)}),
                   quick_config(50.0), outages({{0, 100.0, 120.0}}));
  ScriptedScheduler scheduler({0});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& job = done[0];
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
  EXPECT_EQ(counters.events_of(EventKind::kSiteDown), 1u);
  EXPECT_EQ(counters.events_of(EventKind::kSiteUp), 1u);
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
  SimKernel kernel(
      {{0, 1, 1.0, 1.0}},
      stream_of({make_job(0.0, 100.0, 1, 0.5), make_job(0.0, 10.0, 1, 0.5)}),
      quick_config(50.0), outages({{0, 100.0, 120.0}}));
  ScriptedScheduler scheduler({0});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& a = done[0];
  const Job& b = done[1];
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
  SimKernel kernel({{0, 1, 1.0, 1.0}},
                   stream_of({make_job(0.0, 100.0, 1, 0.5)}),
                   quick_config(50.0), outages({{0, 100.0, 120.0}}));
  ScriptedScheduler inner({0});
  MaskProbeScheduler probe(inner);
  kernel.run(probe);

  ASSERT_EQ(probe.masks.size(), 3u);
  EXPECT_EQ(probe.masks[0], std::vector<std::uint8_t>({1}));  // t=50
  EXPECT_EQ(probe.masks[1], std::vector<std::uint8_t>({0}));  // t=100: down
  EXPECT_EQ(probe.masks[2], std::vector<std::uint8_t>({1}));  // t=150: back
}

TEST(SiteChurn, AssigningToADownSiteIsAProtocolViolation) {
  // The scripted scheduler ignores the mask and keeps targeting site 0
  // while it is down at the t=100 cycle; the kernel must reject that.
  SimKernel kernel(
      {{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}},
      stream_of({make_job(0.0, 100.0, 1, 0.5), make_job(60.0, 10.0, 1, 0.5)}),
      quick_config(50.0), outages({{0, 90.0, 500.0}}));
  ScriptedScheduler scheduler({0}, /*respect_mask=*/false);
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
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
                   stream_of({make_job(0.0, 100.0, 1, 0.9)}), config,
                   outages({{1, 150.0, 160.0}}));
  ScriptedScheduler scheduler({0, 1, 1});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& job = done[0];
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
  SimKernel kernel({{0, 1, 1.0, 1.0}},
                   stream_of({make_job(0.0, 100.0, 1, 0.5)}),
                   quick_config(50.0), outages({{0, 100.0, 120.0}}));
  ScriptedScheduler scheduler({0});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  EXPECT_EQ(kernel.counters().completed_jobs, 1u);
  EXPECT_EQ(done[0].attempts, 2u);
  EXPECT_DOUBLE_EQ(done[0].finish, 250.0);
}

/// A two-site kernel over `script`; construction validates the script.
SimKernel two_site_kernel(std::vector<SiteOutage> script) {
  return SimKernel({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}}, stream_of({}),
                   quick_config(), std::move(script));
}

TEST(SiteChurn, ScriptedOutageValidation) {
  EXPECT_THROW(two_site_kernel({SiteOutage{0, 100.0, 100.0}}),
               std::invalid_argument);
  EXPECT_THROW(two_site_kernel({SiteOutage{0, -1.0, 10.0}}),
               std::invalid_argument);
  // Overlapping outages for one site are rejected (a boolean mask cannot
  // represent nested downtime); the same windows on distinct sites are
  // fine, as are back-to-back outages sharing an endpoint.
  EXPECT_THROW(
      two_site_kernel({SiteOutage{0, 10.0, 100.0}, SiteOutage{0, 50.0,
                                                              200.0}}),
      std::invalid_argument);
  EXPECT_NO_THROW(two_site_kernel(
      {SiteOutage{0, 10.0, 100.0}, SiteOutage{1, 50.0, 200.0}}));
  EXPECT_NO_THROW(two_site_kernel(
      {SiteOutage{0, 10.0, 100.0}, SiteOutage{0, 100.0, 200.0}}));
}

TEST(SiteChurn, ScriptedOutageOnUnknownSiteIsRejected) {
  // Site 2 is outside the two-site grid: the mask and the live-attempt
  // index have no entry for it.
  try {
    two_site_kernel({SiteOutage{2, 10.0, 20.0}});
    FAIL() << "an outage on an unknown site was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("site 2"), std::string::npos)
        << error.what();
  }
}

TEST(SiteChurn, StochasticChurnIsDeterministic) {
  // Same workload + seed => bit-identical outcome, including every churn
  // counter; a different engine seed draws a different churn timeline.
  auto run = [](std::uint64_t engine_seed) {
    exp::Scenario scenario = exp::make_scenario("synth-churn-hi", 150);
    workload::Workload workload = exp::make_workload(scenario, 7);
    EXPECT_EQ(workload.churn.size(), workload.sites.size());
    sim::EngineConfig config = scenario.engine;
    config.seed = engine_seed;
    SimKernel kernel(workload.sites,
                     std::make_unique<workload::MaterializedStream>(
                         workload.jobs, workload.exec),
                     config, workload.churn);
    sched::MinMinScheduler scheduler(security::RiskPolicy::risky());
    const std::vector<Job> done = test::run_recorded(kernel, scheduler);
    std::vector<double> finishes;
    for (const Job& job : done) finishes.push_back(job.finish);
    return std::pair(finishes,
                     kernel.counters().events_of(EventKind::kSiteDown));
  };
  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run(12);
  EXPECT_NE(a.first, c.first);
}

TEST(SiteChurn, ChurnFreeWorkloadQueuesNoChurnEvent) {
  // An all-zero churn vector must behave exactly like no churn vector.
  std::vector<SiteChurnParams> no_churn(1);
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(50.0), no_churn);
  ScriptedScheduler scheduler({0});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  EXPECT_EQ(kernel.counters().events_of(EventKind::kSiteDown), 0u);
  EXPECT_DOUBLE_EQ(done[0].finish, 60.0);
}

/// Passive check of the live-attempt index: after every event (and once
/// more at run end) each site's live list must equal, as a set, the
/// brute-force {slot : attempts[slot].active && attempts[slot].site == s}
/// scan, every listed slot must record its own list position, and the
/// live count must equal the number of active slots. Also records the
/// revocation order.
class LiveIndexChecker final : public KernelObserver {
 public:
  void on_event(const SimKernel& kernel, const Event& event) override {
    (void)event;
    check(kernel);
  }
  void on_run_end(const SimKernel& kernel) override { check(kernel); }
  void on_revoke(const SimKernel& kernel, JobId job, SiteId site,
                 Time time) override {
    (void)kernel;
    (void)site;
    (void)time;
    revoked.push_back(job);
  }

  std::size_t checks = 0;
  std::size_t max_live = 0;  ///< largest single-site live list seen
  std::vector<JobId> revoked;

 private:
  void check(const SimKernel& kernel) {
    ++checks;
    const std::vector<Attempt>& attempts = kernel.attempts();
    std::size_t active = 0;
    for (const Attempt& attempt : attempts) active += attempt.active ? 1 : 0;
    ASSERT_EQ(kernel.live_attempt_count(), active) << "check " << checks;
    for (std::size_t s = 0; s < kernel.sites().size(); ++s) {
      const auto site = static_cast<SiteId>(s);
      std::vector<std::uint32_t> expected;
      for (std::size_t slot = 0; slot < attempts.size(); ++slot) {
        if (attempts[slot].active && attempts[slot].site == site) {
          expected.push_back(static_cast<std::uint32_t>(slot));
        }
      }
      const std::span<const std::uint32_t> live = kernel.live_attempts(site);
      for (std::size_t pos = 0; pos < live.size(); ++pos) {
        ASSERT_LT(live[pos], attempts.size());
        ASSERT_EQ(attempts[live[pos]].live_pos, pos)
            << "site " << s << ", check " << checks;
      }
      std::vector<std::uint32_t> actual(live.begin(), live.end());
      std::sort(actual.begin(), actual.end());
      ASSERT_EQ(actual, expected) << "site " << s << ", check " << checks;
      max_live = std::max(max_live, live.size());
    }
  }
};

TEST(LiveAttemptIndex, ScriptedOutageOverStackedReservations) {
  // Site 0 (one node) stacks A [50, 60), B [60, 160), C [160, 170); site 1
  // runs D [50, 150). A's completion at 60 unlinks the head of site 0's
  // list (a swap-remove that moves C); the t=100 outage then revokes C and
  // B — latest window end first — and leaves D's site untouched.
  SimKernel kernel({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}},
                   stream_of({make_job(0.0, 10.0, 1, 0.5),
                              make_job(0.0, 100.0, 1, 0.5),
                              make_job(0.0, 10.0, 1, 0.5),
                              make_job(0.0, 100.0, 1, 0.5)}),
                   quick_config(50.0), outages({{0, 100.0, 120.0}}));
  // First cycle: jobs 0-2 to site 0, job 3 to site 1; later cycles (after
  // the outage) send everything to site 1.
  class SplitScheduler final : public BatchScheduler {
   public:
    [[nodiscard]] std::string name() const override { return "split"; }
    void schedule_into(const SchedulerContext& context,
                       std::vector<Assignment>& out) override {
      out.clear();
      for (std::size_t j = 0; j < context.jobs.size(); ++j) {
        const bool first = calls_ == 0 && context.jobs[j].id < 3;
        out.push_back({j, first ? SiteId{0} : SiteId{1}});
      }
      ++calls_;
    }

   private:
    std::size_t calls_ = 0;
  } scheduler;
  LiveIndexChecker checker;
  kernel.set_observer(&checker);
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  EXPECT_EQ(checker.revoked, (std::vector<JobId>{2, 1}));
  EXPECT_EQ(checker.max_live, 3u);
  EXPECT_EQ(kernel.counters().interrupted_attempts, 2u);
  EXPECT_EQ(kernel.counters().churn_released_nodes, 1u);
  EXPECT_EQ(kernel.counters().churn_unreleased_nodes, 1u);
  EXPECT_EQ(kernel.counters().completed_jobs, 4u);
  EXPECT_EQ(kernel.live_attempt_count(), 0u);
  EXPECT_DOUBLE_EQ(done[0].finish, 60.0);
  EXPECT_DOUBLE_EQ(done[3].finish, 150.0);
}

/// Runs `kernel` (stochastic churn) under the live-index checker. Slots
/// recycle as jobs retire, so stale ends of retired jobs whose slot
/// already holds another job must not disturb the index either.
void check_live_index(SimKernel& kernel, std::size_t n_jobs) {
  LiveIndexChecker checker;
  kernel.set_observer(&checker);
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  EXPECT_GT(kernel.counters().interrupted_attempts, 0u)
      << "no revocations; the index was never unlinked by churn";
  EXPECT_GT(kernel.counters().failure_events, 0u);
  EXPECT_EQ(kernel.counters().completed_jobs, n_jobs);
  EXPECT_GT(checker.max_live, 1u);
  EXPECT_EQ(kernel.live_attempt_count(), 0u);
  EXPECT_LT(kernel.peak_slots(), n_jobs);
}

TEST(LiveAttemptIndex, MatchesBruteForceScanMaterialized) {
  // A materialized job vector: synth-churn-hi.
  const exp::Scenario scenario = exp::make_scenario("synth-churn-hi", 150);
  const workload::Workload workload = exp::make_workload(scenario, 5);
  EngineConfig config = scenario.engine;
  config.seed = 11;
  SimKernel kernel(workload.sites,
                   std::make_unique<workload::MaterializedStream>(
                       workload.jobs, workload.exec),
                   config, workload.churn);
  check_live_index(kernel, workload.jobs.size());
}

TEST(LiveAttemptIndex, MatchesBruteForceScanGenerated) {
  // A generator cursor: a churned synthetic stream at ~70% load.
  workload::synth::SynthStreamConfig stream_config;
  stream_config.name = "live-index-probe";
  stream_config.n_jobs = 400;
  stream_config.n_sites = 20;
  stream_config.arrival.rate = 0.2;
  stream_config.churn.enabled = true;
  stream_config.churn.mtbf_mean = 6000.0;
  stream_config.churn.mttr_mean = 600.0;
  workload::synth::StreamWorkload stream =
      workload::synth::stream_workload(stream_config, 13);
  EngineConfig config;
  config.batch_interval = 100.0;
  config.seed = 4;
  SimKernel kernel(std::move(stream.sites), std::move(stream.jobs), config,
                   std::move(stream.churn));
  check_live_index(kernel, stream_config.n_jobs);
}

}  // namespace
}  // namespace gridsched::sim
