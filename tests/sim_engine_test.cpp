#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sched/heuristics.hpp"

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

/// Scripted scheduler: assigns every batch job to a fixed site per call,
/// following a site sequence (last entry repeats).
class ScriptedScheduler final : public BatchScheduler {
 public:
  explicit ScriptedScheduler(std::vector<SiteId> sequence)
      : sequence_(std::move(sequence)) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }

  void schedule_into(const SchedulerContext& context,
                     std::vector<Assignment>& out) override {
    const SiteId site = sequence_[std::min(call_, sequence_.size() - 1)];
    ++call_;
    out.clear();
    for (std::size_t j = 0; j < context.jobs.size(); ++j) out.push_back({j,
                                                                         site});
  }

 private:
  std::vector<SiteId> sequence_;
  std::size_t call_ = 0;
};

/// Scheduler that never assigns anything (starvation probe).
class RefusingScheduler final : public BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "refuser"; }
  void schedule_into(const SchedulerContext&,
                     std::vector<Assignment>& out) override {
    out.clear();
  }
};

/// Scheduler emitting a caller-supplied raw assignment list once.
class RawScheduler final : public BatchScheduler {
 public:
  explicit RawScheduler(std::vector<Assignment> out) : out_(std::move(out)) {}
  [[nodiscard]] std::string name() const override { return "raw"; }
  void schedule_into(const SchedulerContext&,
                     std::vector<Assignment>& out) override {
    out = std::exchange(out_, {});
  }

 private:
  std::vector<Assignment> out_;
};

EngineConfig quick_config(Time interval = 50.0) {
  EngineConfig config;
  config.batch_interval = interval;
  config.detection = FailureDetection::kAtEnd;
  return config;
}

TEST(Engine, RejectsEmptySiteList) {
  EXPECT_THROW(Engine({}, {make_job(0, 10, 1, 0.5)}, quick_config()),
               std::invalid_argument);
}

TEST(Engine, RejectsNonPositiveInterval) {
  EngineConfig config;
  config.batch_interval = 0.0;
  EXPECT_THROW(Engine({{0, 1, 1.0, 1.0}}, std::vector<Job>{}, config),
               std::invalid_argument);
}

TEST(Engine, RejectsJobWithoutSafeHome) {
  // Only site has SL 0.7 < demand 0.9: a failure could never be recovered.
  EXPECT_THROW(Engine({{0, 1, 1.0, 0.7}}, {make_job(0, 10, 1, 0.9)},
                      quick_config()),
               std::invalid_argument);
}

TEST(Engine, RejectsOversizedJob) {
  EXPECT_THROW(Engine({{0, 2, 1.0, 1.0}}, {make_job(0, 10, 4, 0.5)},
                      quick_config()),
               std::invalid_argument);
}

TEST(Engine, RejectsBadJobFields) {
  EXPECT_THROW(Engine({{0, 1, 1.0, 1.0}}, {make_job(0, 0.0, 1, 0.5)},
                      quick_config()),
               std::invalid_argument);
  EXPECT_THROW(Engine({{0, 1, 1.0, 1.0}}, {make_job(0, 10, 0, 0.5)},
                      quick_config()),
               std::invalid_argument);
  EXPECT_THROW(Engine({{0, 1, 1.0, 1.0}}, {make_job(-1, 10, 1, 0.5)},
                      quick_config()),
               std::invalid_argument);
}

TEST(Engine, SingleJobTimeline) {
  // Arrival 10, interval 50 -> scheduled at the t=50 cycle, runs 100 s.
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(10.0, 100.0, 1, 0.8)},
                quick_config(50.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);

  const Job& job = engine.jobs()[0];
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(job.first_start, 50.0);
  EXPECT_DOUBLE_EQ(job.finish, 150.0);
  EXPECT_DOUBLE_EQ(engine.makespan(), 150.0);
  EXPECT_EQ(job.attempts, 1u);
  EXPECT_EQ(job.failures, 0u);
  EXPECT_FALSE(job.took_risk);
  EXPECT_EQ(engine.counters().completed_jobs, 1u);
  EXPECT_EQ(engine.counters().batch_invocations, 1u);
}

TEST(Engine, JobsAccumulateIntoOneBatch) {
  // Both jobs arrive before the first cycle at t=100 and share one node.
  Engine engine({{0, 1, 1.0, 1.0}},
                {make_job(10.0, 20.0, 1, 0.7), make_job(60.0, 30.0, 1, 0.7)},
                quick_config(100.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);

  EXPECT_EQ(engine.counters().batch_invocations, 1u);
  EXPECT_DOUBLE_EQ(engine.jobs()[0].finish, 120.0);
  EXPECT_DOUBLE_EQ(engine.jobs()[1].finish, 150.0);
}

TEST(Engine, MultiNodeJobsShareSite) {
  // 2-node site: a 2-node job then a 1-node job queue up, then overlap.
  Engine engine({{0, 2, 1.0, 1.0}},
                {make_job(0.0, 40.0, 2, 0.7), make_job(0.0, 10.0, 1, 0.7),
                 make_job(0.0, 10.0, 1, 0.7)},
                quick_config(50.0));
  ScriptedScheduler scheduler({0});
  engine.run(scheduler);
  // Dispatch order = batch order: J0 holds both nodes 50..90; J1 90..100;
  // J2 90..100 on the other node.
  EXPECT_DOUBLE_EQ(engine.jobs()[0].finish, 90.0);
  EXPECT_DOUBLE_EQ(engine.jobs()[1].finish, 100.0);
  EXPECT_DOUBLE_EQ(engine.jobs()[2].finish, 100.0);
  EXPECT_DOUBLE_EQ(engine.makespan(), 100.0);
}

TEST(Engine, SpeedScalesExecution) {
  Engine engine({{0, 1, 4.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.7)},
                quick_config(10.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);
  EXPECT_DOUBLE_EQ(engine.jobs()[0].finish, 35.0);  // 10 + 100/4
}

TEST(Engine, CertainFailureIsRescheduledToSafeSite) {
  // Site 0 is fast but insecure; lambda enormous => P(fail) ~= 1.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  Engine engine({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 1});
  engine.run(scheduler);

  const Job& job = engine.jobs()[0];
  EXPECT_EQ(job.failures, 1u);
  EXPECT_EQ(job.attempts, 2u);
  EXPECT_TRUE(job.took_risk);
  EXPECT_TRUE(job.secure_only);
  EXPECT_EQ(job.final_site, 1u);
  EXPECT_EQ(job.state, JobState::kCompleted);
  // Attempt 1: 50..150 (fails at end). The t=150 batch cycle fires right
  // after the failure event (FIFO tie-break), so the retry starts at 150
  // on the safe site and runs to 250.
  EXPECT_DOUBLE_EQ(job.first_start, 50.0);
  EXPECT_DOUBLE_EQ(job.last_start, 150.0);
  EXPECT_DOUBLE_EQ(job.finish, 250.0);
  EXPECT_EQ(engine.counters().failure_events, 1u);
  EXPECT_EQ(engine.counters().risky_attempts, 1u);
}

TEST(Engine, FailStopForbidsSecondRisk) {
  // Scripted scheduler would send the retry to the insecure site again;
  // the engine must reject that as a protocol violation.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  Engine engine({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 0});
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, UniformDetectionFailsBeforePlannedEnd) {
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  config.detection = FailureDetection::kUniformFraction;
  Engine engine({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 1});
  engine.run(scheduler);
  const Job& job = engine.jobs()[0];
  EXPECT_EQ(job.failures, 1u);
  // The retry cycle can only fire after the detection instant, which is
  // strictly inside (50, 150]; the retry completes 100 s after it starts.
  EXPECT_GT(job.last_start, 50.0);
  EXPECT_DOUBLE_EQ(job.finish - job.last_start, 100.0);
}

TEST(Engine, AtMostOneFailurePerJob) {
  EngineConfig config = quick_config(20.0);
  config.lambda = 1000.0;
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i * 5.0, 40.0, 1, 0.9));
  }
  Engine engine({{0, 2, 1.0, 0.4}, {1, 2, 1.0, 0.95}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  engine.run(scheduler);
  for (const Job& job : engine.jobs()) {
    EXPECT_LE(job.failures, 1u);
    EXPECT_EQ(job.attempts, job.failures + 1);
  }
}

TEST(Engine, SecurePolicyNeverRisks) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back(make_job(i * 3.0, 25.0, 1, 0.8));
  Engine engine({{0, 2, 1.0, 0.5}, {1, 2, 1.0, 0.9}}, jobs, quick_config(30.0));
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);
  EXPECT_EQ(engine.counters().risky_attempts, 0u);
  EXPECT_EQ(engine.counters().failure_events, 0u);
  for (const Job& job : engine.jobs()) {
    EXPECT_EQ(job.final_site, 1u);  // only the SL=0.9 site is admissible
  }
}

TEST(Engine, StarvationGuardFires) {
  EngineConfig config = quick_config(10.0);
  config.max_idle_cycles = 5;
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)}, config);
  RefusingScheduler scheduler;
  EXPECT_THROW(engine.run(scheduler), std::runtime_error);
}

TEST(Engine, RunTwiceIsAnError) {
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                quick_config(10.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationOutOfRangeJob) {
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                quick_config(10.0));
  RawScheduler scheduler({{5, 0}});
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationInvalidSite) {
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                quick_config(10.0));
  RawScheduler scheduler({{0, 9}});
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationDuplicateAssignment) {
  Engine engine({{0, 2, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                quick_config(10.0));
  RawScheduler scheduler({{0, 0}, {0, 0}});
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationOversizedPlacement) {
  Engine engine({{0, 1, 1.0, 1.0}, {1, 4, 1.0, 1.0}},
                {make_job(0.0, 10.0, 4, 0.5)}, quick_config(10.0));
  RawScheduler scheduler({{0, 0}});  // 4-node job onto 1-node site
  EXPECT_THROW(engine.run(scheduler), std::logic_error);
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    EngineConfig config = quick_config(25.0);
    config.lambda = 3.0;
    config.seed = 77;
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i) {
      jobs.push_back(make_job(i * 7.0, 15.0 + i, 1, 0.6 + 0.01 * (i % 30)));
    }
    Engine engine({{0, 2, 1.0, 0.5}, {1, 2, 2.0, 0.7}, {2, 1, 1.0, 0.95}},
                  jobs, config);
    sched::MinMinScheduler scheduler(security::RiskPolicy::risky());
    engine.run(scheduler);
    std::vector<double> finishes;
    for (const Job& job : engine.jobs()) finishes.push_back(job.finish);
    return finishes;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, DifferentSeedsChangeFailureOutcomes) {
  auto fail_count = [](std::uint64_t seed) {
    EngineConfig config = quick_config(25.0);
    config.lambda = 3.0;
    config.seed = seed;
    std::vector<Job> jobs;
    for (int i = 0; i < 60; ++i) jobs.push_back(make_job(i * 5.0, 20.0, 1,
                                                         0.85));
    Engine engine({{0, 4, 1.0, 0.45}, {1, 2, 1.0, 0.95}}, jobs, config);
    sched::MctScheduler scheduler(security::RiskPolicy::risky());
    engine.run(scheduler);
    return engine.counters().failure_events;
  };
  // Not a tautology: with ~60 risky draws the chance of identical counts
  // for 4 different seeds is negligible.
  const auto a = fail_count(1);
  const auto b = fail_count(2);
  const auto c = fail_count(3);
  const auto d = fail_count(4);
  EXPECT_TRUE(a != b || b != c || c != d);
}

TEST(Engine, FailureReleasesReservedCapacity) {
  // Job A (2 nodes, 1000 s) certain-fails on the risky site with immediate
  // detection: both reserved node-tails must come back at the detection
  // instant so job B can reuse the site at the next cycle instead of
  // queueing behind A's stale 1000 s reservation.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;  // P(fail) ~= 1 on the risky site
  config.detection = FailureDetection::kImmediate;
  std::vector<Job> jobs = {make_job(0.0, 1000.0, 2, 0.9),
                           make_job(60.0, 10.0, 1, 0.3)};
  Engine engine({{0, 2, 1.0, 0.4}, {1, 2, 1.0, 1.0}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  engine.run(scheduler);

  const Job& a = engine.jobs()[0];
  const Job& b = engine.jobs()[1];
  EXPECT_EQ(a.failures, 1u);
  EXPECT_EQ(a.final_site, 1u);  // fail-stop retry on the safe site
  EXPECT_DOUBLE_EQ(a.finish, 1100.0);  // retry dispatched at t=100
  // B lands on site 0 at the t=100 cycle: both nodes were released when
  // A's failure was detected (t=50.001), not held until t=1050.
  EXPECT_EQ(b.final_site, 0u);
  EXPECT_DOUBLE_EQ(b.first_start, 100.0);
  EXPECT_DOUBLE_EQ(b.finish, 110.0);
  // Both of A's reserved node-tails were reclaimed, none silently dropped.
  EXPECT_EQ(engine.counters().released_nodes, 2u);
  EXPECT_EQ(engine.counters().unreleased_nodes, 0u);
}

TEST(Engine, FailureReleaseCountsTailsAlreadyReReserved) {
  // A 1-node site runs doomed job A (detection at the very end of the
  // window); job B's reservation is stacked onto the same node at the
  // t=100 cycle (the slow safe site would finish B far later), before A's
  // failure fires at t=150. The release then finds the node's free time
  // moved past A's window end — 0 tails reclaimed, surfaced through
  // unreleased_nodes rather than silently ignored.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  config.detection = FailureDetection::kAtEnd;
  std::vector<Job> jobs = {make_job(0.0, 100.0, 1, 0.9),
                           make_job(60.0, 10.0, 1, 0.3)};
  Engine engine({{0, 1, 1.0, 0.4}, {1, 1, 0.01, 1.0}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  engine.run(scheduler);

  const Job& b = engine.jobs()[1];
  EXPECT_EQ(engine.jobs()[0].failures, 1u);
  EXPECT_EQ(b.final_site, 0u);
  EXPECT_DOUBLE_EQ(b.first_start, 150.0);  // stacked behind A's full window
  EXPECT_EQ(engine.counters().released_nodes, 0u);
  EXPECT_EQ(engine.counters().unreleased_nodes, 1u);
}

TEST(Engine, BatchCycleAtExactMultipleStaysStrictlyAfterNow) {
  // 5 * 0.2 rounds to exactly 1.0 while 1.0 / 0.2 floats to 4.999...: the
  // old float cycle computation (floor(now/interval) + 1) scheduled the
  // cycle for the t=1.0 arrival AT t=1.0 itself. The integer-index
  // derivation must place it strictly after, at 6 * 0.2.
  EngineConfig config = quick_config(0.2);
  Engine engine({{0, 1, 1.0, 1.0}}, {make_job(1.0, 1.0, 1, 0.5)}, config);
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);
  const Job& job = engine.jobs()[0];
  EXPECT_GT(job.first_start, 1.0);
  EXPECT_NEAR(job.first_start, 1.2, 1e-9);
}

TEST(Engine, SchedulerSecondsAccumulate) {
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(i * 2.0, 5.0, 1, 0.7));
  Engine engine({{0, 2, 1.0, 1.0}}, jobs, quick_config(10.0));
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  engine.run(scheduler);
  EXPECT_GE(engine.counters().scheduler_seconds, 0.0);
  EXPECT_GE(engine.counters().batch_invocations, 1u);
}

}  // namespace
}  // namespace gridsched::sim
