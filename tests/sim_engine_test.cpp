#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/ga_problem.hpp"
#include "exp/scenario.hpp"
#include "job_recorder.hpp"
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

/// Jobs are validated as they are admitted, inside run(): running an
/// kernel over `jobs` must throw std::invalid_argument whose text
/// contains `problem` (the job and the field).
void expect_rejected(std::vector<Job> jobs, const std::string& problem,
                     std::vector<SiteConfig> sites = {{0, 1, 1.0, 1.0}},
                     Time interval = 50.0) {
  SimKernel kernel(std::move(sites), std::move(jobs), quick_config(interval));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  try {
    kernel.run(scheduler);
    ADD_FAILURE() << "run accepted the workload";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(problem), std::string::npos)
        << error.what();
  }
}

TEST(Engine, RejectsEmptySiteList) {
  EXPECT_THROW(SimKernel({}, {make_job(0, 10, 1, 0.5)}, quick_config()),
               std::invalid_argument);
}

// Non-finite fields: an infinite arrival would spin request_cycle's
// integer cycle search forever, a NaN arrival would leak into the metrics,
// and non-finite work would surface only as scheduler starvation.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Constructing a kernel with `config` must throw std::invalid_argument
/// whose text names `field`.
void expect_config_rejected(const EngineConfig& config,
                            const std::string& field) {
  try {
    SimKernel kernel({{0, 1, 1.0, 1.0}}, std::vector<Job>{}, config);
    ADD_FAILURE() << "kernel accepted " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(Engine, RejectsNonPositiveInterval) {
  // An infinite interval hung request_cycle; NaN surfaced as "scheduler
  // starved".
  for (const double interval : {0.0, -1.0, kInf, kNaN}) {
    EngineConfig config;
    config.batch_interval = interval;
    expect_config_rejected(config, "batch_interval");
  }
}

TEST(Engine, RejectsIntervalTooSmallForTheSimTime) {
  // now / batch_interval = 1e302 overflowed the integer cycle index and
  // the run never ended; past 2^53 the index is no longer exact.
  expect_rejected({make_job(100, 10, 1, 0.5)},
                  "batch_interval 1e-300 is too small at sim time now = 100",
                  {{0, 1, 1.0, 1.0}}, 1e-300);
}

TEST(Engine, RejectsNegativeOrNonFiniteLambda) {
  // A negative or NaN lambda silently switched Eq. 1 off.
  for (const double lambda : {-1.0, kInf, kNaN}) {
    EngineConfig config;
    config.lambda = lambda;
    expect_config_rejected(config, "lambda");
  }
  EngineConfig zero_lambda;
  zero_lambda.lambda = 0.0;  // no failures at all is a valid model
  EXPECT_NO_THROW(
      SimKernel({{0, 1, 1.0, 1.0}}, std::vector<Job>{}, zero_lambda));
}

// The kernel API is closed: every mutator is private, so only the kernel's
// own handlers can queue events, activate or revoke attempts, flip the
// site mask or admit jobs, and an observer holding the kernel cannot
// steer a run. A requires-expression is unsatisfied by an inaccessible
// member, so each concept below reads false from outside the class.
template <class K>
concept CanPushEvent = requires(K& k, Event e) { k.push_event(e); };
template <class K>
concept CanRequestCycle = requires(K& k) { k.request_cycle(Time{}); };
template <class K>
concept CanRevokeAttempt = requires(K& k) { k.revoke_attempt(JobId{}, Time{}); };
template <class K>
concept CanStartAttempt =
    requires(K& k, const NodeAvailability::Window& window) {
      k.start_attempt(JobId{}, window, 1.0, SiteId{}, 1u);
    };
template <class K>
concept CanSetSiteUp = requires(K& k) { k.set_site_up(std::size_t{}, true); };
template <class K>
concept CanAdmitNext = requires(K& k, Event e) { k.admit_next(e); };
template <class K>
concept CanRun = requires(K& k, BatchScheduler& s) { k.run(s); };
template <class K>
concept CanSetObserver = requires(K& k) { k.set_observer(nullptr); };

static_assert(!CanPushEvent<SimKernel>);
static_assert(!CanRequestCycle<SimKernel>);
static_assert(!CanRevokeAttempt<SimKernel>);
static_assert(!CanStartAttempt<SimKernel>);
static_assert(!CanSetSiteUp<SimKernel>);
static_assert(!CanAdmitNext<SimKernel>);
// The concepts are not vacuous: the public entry points satisfy the same
// form.
static_assert(CanRun<SimKernel>);
static_assert(CanSetObserver<SimKernel>);

TEST(Engine, RejectsJobWithoutSafeHome) {
  // Only site has SL 0.7 < demand 0.9: a failure could never be recovered.
  expect_rejected({make_job(0, 10, 1, 0.9)}, "job 0 has no absolutely-safe",
                  {{0, 1, 1.0, 0.7}});
}

TEST(Engine, RejectsOversizedJob) {
  expect_rejected({make_job(0, 10, 4, 0.5)}, "job 0 has no absolutely-safe",
                  {{0, 2, 1.0, 1.0}});
}

TEST(Engine, RejectsBadJobFields) {
  expect_rejected({make_job(0, 0.0, 1, 0.5)}, "job 0 work");
  expect_rejected({make_job(0, 10, 0, 0.5)}, "job 0 nodes");
  expect_rejected({make_job(-1, 10, 1, 0.5)}, "job 0 arrival");
}

TEST(Engine, RejectsInfiniteArrival) {
  expect_rejected({make_job(kInf, 10, 1, 0.5)}, "job 0 arrival");
}

TEST(Engine, RejectsNaNArrival) {
  expect_rejected({make_job(kNaN, 10, 1, 0.5)}, "job 0 arrival");
}

TEST(Engine, RejectsNaNWork) {
  expect_rejected({make_job(0, kNaN, 1, 0.5)}, "job 0 work");
}

TEST(Engine, RejectsInfiniteWork) {
  expect_rejected({make_job(0, kInf, 1, 0.5)}, "job 0 work");
}

TEST(Engine, RejectsOutOfOrderJobVector) {
  // A job vector obeys the stream contract: arrivals must be
  // nondecreasing. The second job is rejected when it is admitted.
  expect_rejected({make_job(10, 10, 1, 0.5), make_job(5, 10, 1, 0.5)},
                  "job 1 arrival is out of order: arrivals must be "
                  "nondecreasing");
}

TEST(Engine, SingleJobTimeline) {
  // Arrival 10, interval 50 -> scheduled at the t=50 cycle, runs 100 s.
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(10.0, 100.0, 1, 0.8)},
                   quick_config(50.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& job = done[0];
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(job.first_start, 50.0);
  EXPECT_DOUBLE_EQ(job.finish, 150.0);
  EXPECT_DOUBLE_EQ(kernel.makespan(), 150.0);
  EXPECT_EQ(job.attempts, 1u);
  EXPECT_EQ(job.failures, 0u);
  EXPECT_FALSE(job.took_risk);
  EXPECT_EQ(kernel.counters().completed_jobs, 1u);
  EXPECT_EQ(kernel.counters().batch_invocations, 1u);
}

TEST(Engine, JobsAccumulateIntoOneBatch) {
  // Both jobs arrive before the first cycle at t=100 and share one node.
  SimKernel kernel({{0, 1, 1.0, 1.0}},
                   {make_job(10.0, 20.0, 1, 0.7), make_job(60.0, 30.0, 1, 0.7)},
                   quick_config(100.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  EXPECT_EQ(kernel.counters().batch_invocations, 1u);
  EXPECT_DOUBLE_EQ(done[0].finish, 120.0);
  EXPECT_DOUBLE_EQ(done[1].finish, 150.0);
}

TEST(Engine, MultiNodeJobsShareSite) {
  // 2-node site: a 2-node job then a 1-node job queue up, then overlap.
  SimKernel kernel({{0, 2, 1.0, 1.0}},
                   {make_job(0.0, 40.0, 2, 0.7), make_job(0.0, 10.0, 1, 0.7),
                    make_job(0.0, 10.0, 1, 0.7)},
                   quick_config(50.0));
  ScriptedScheduler scheduler({0});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  // Dispatch order = batch order: J0 holds both nodes 50..90; J1 90..100;
  // J2 90..100 on the other node.
  EXPECT_DOUBLE_EQ(done[0].finish, 90.0);
  EXPECT_DOUBLE_EQ(done[1].finish, 100.0);
  EXPECT_DOUBLE_EQ(done[2].finish, 100.0);
  EXPECT_DOUBLE_EQ(kernel.makespan(), 100.0);
}

TEST(Engine, SpeedScalesExecution) {
  SimKernel kernel({{0, 1, 4.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.7)},
                   quick_config(10.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  EXPECT_DOUBLE_EQ(done[0].finish, 35.0);  // 10 + 100/4
}

TEST(Engine, CertainFailureIsRescheduledToSafeSite) {
  // Site 0 is fast but insecure; lambda enormous => P(fail) ~= 1.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 1});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& job = done[0];
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
  EXPECT_EQ(kernel.counters().failure_events, 1u);
  EXPECT_EQ(kernel.counters().risky_attempts, 1u);
}

TEST(Engine, FailStopForbidsSecondRisk) {
  // Scripted scheduler would send the retry to the insecure site again;
  // the kernel must reject that as a protocol violation.
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 0});
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
}

TEST(Engine, UniformDetectionFailsBeforePlannedEnd) {
  EngineConfig config = quick_config(50.0);
  config.lambda = 1000.0;
  config.detection = FailureDetection::kUniformFraction;
  SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                   {make_job(0.0, 100.0, 1, 0.9)}, config);
  ScriptedScheduler scheduler({0, 1});
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  const Job& job = done[0];
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
  SimKernel kernel({{0, 2, 1.0, 0.4}, {1, 2, 1.0, 0.95}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  ASSERT_EQ(done.size(), jobs.size());
  for (const Job& job : done) {
    EXPECT_LE(job.failures, 1u);
    EXPECT_EQ(job.attempts, job.failures + 1);
  }
}

TEST(Engine, SecurePolicyNeverRisks) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back(make_job(i * 3.0, 25.0, 1, 0.8));
  SimKernel kernel({{0, 2, 1.0, 0.5}, {1, 2, 1.0, 0.9}}, jobs,
                   quick_config(30.0));
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  EXPECT_EQ(kernel.counters().risky_attempts, 0u);
  EXPECT_EQ(kernel.counters().failure_events, 0u);
  ASSERT_EQ(done.size(), jobs.size());
  for (const Job& job : done) {
    EXPECT_EQ(job.final_site, 1u);  // only the SL=0.9 site is admissible
  }
}

TEST(Engine, StarvationGuardFires) {
  EngineConfig config = quick_config(10.0);
  config.max_idle_cycles = 5;
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)}, config);
  RefusingScheduler scheduler;
  EXPECT_THROW(kernel.run(scheduler), std::runtime_error);
}

TEST(Engine, RunTwiceIsAnError) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(10.0));
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);

  // Once-only holds whatever the first run's outcome: a run that threw
  // cannot be retried over its half-simulated state.
  SimKernel failed({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(10.0));
  RawScheduler invalid({{0, 9}});
  EXPECT_THROW(failed.run(invalid), std::logic_error);
  try {
    failed.run(scheduler);
    FAIL() << "a second run() was accepted";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("called twice"),
              std::string::npos)
        << error.what();
  }
}

TEST(Engine, ProtocolViolationOutOfRangeJob) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(10.0));
  RawScheduler scheduler({{5, 0}});
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationInvalidSite) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(10.0));
  RawScheduler scheduler({{0, 9}});
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationDuplicateAssignment) {
  SimKernel kernel({{0, 2, 1.0, 1.0}}, {make_job(0.0, 10.0, 1, 0.5)},
                   quick_config(10.0));
  RawScheduler scheduler({{0, 0}, {0, 0}});
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
}

TEST(Engine, ProtocolViolationOversizedPlacement) {
  SimKernel kernel({{0, 1, 1.0, 1.0}, {1, 4, 1.0, 1.0}},
                   {make_job(0.0, 10.0, 4, 0.5)}, quick_config(10.0));
  RawScheduler scheduler({{0, 0}});  // 4-node job onto 1-node site
  EXPECT_THROW(kernel.run(scheduler), std::logic_error);
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
    SimKernel kernel(
        {{0, 2, 1.0, 0.5}, {1, 2, 2.0, 0.7}, {2, 1, 1.0, 0.95}}, jobs, config);
    sched::MinMinScheduler scheduler(security::RiskPolicy::risky());
    const std::vector<Job> done = test::run_recorded(kernel, scheduler);
    std::vector<double> finishes;
    for (const Job& job : done) finishes.push_back(job.finish);
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
    SimKernel kernel({{0, 4, 1.0, 0.45}, {1, 2, 1.0, 0.95}}, jobs, config);
    sched::MctScheduler scheduler(security::RiskPolicy::risky());
    kernel.run(scheduler);
    return kernel.counters().failure_events;
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
  SimKernel kernel({{0, 2, 1.0, 0.4}, {1, 2, 1.0, 1.0}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& a = done[0];
  const Job& b = done[1];
  EXPECT_EQ(a.failures, 1u);
  EXPECT_EQ(a.final_site, 1u);  // fail-stop retry on the safe site
  EXPECT_DOUBLE_EQ(a.finish, 1100.0);  // retry dispatched at t=100
  // B lands on site 0 at the t=100 cycle: both nodes were released when
  // A's failure was detected (t=50.001), not held until t=1050.
  EXPECT_EQ(b.final_site, 0u);
  EXPECT_DOUBLE_EQ(b.first_start, 100.0);
  EXPECT_DOUBLE_EQ(b.finish, 110.0);
  // Both of A's reserved node-tails were reclaimed, none silently dropped.
  EXPECT_EQ(kernel.counters().released_nodes, 2u);
  EXPECT_EQ(kernel.counters().unreleased_nodes, 0u);
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
  SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 0.01, 1.0}}, jobs, config);
  sched::MctScheduler scheduler(security::RiskPolicy::risky());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);

  const Job& b = done[1];
  EXPECT_EQ(done[0].failures, 1u);
  EXPECT_EQ(b.final_site, 0u);
  EXPECT_DOUBLE_EQ(b.first_start, 150.0);  // stacked behind A's full window
  EXPECT_EQ(kernel.counters().released_nodes, 0u);
  EXPECT_EQ(kernel.counters().unreleased_nodes, 1u);
}

TEST(Engine, BatchCycleAtExactMultipleStaysStrictlyAfterNow) {
  // 5 * 0.2 rounds to exactly 1.0 while 1.0 / 0.2 floats to 4.999...: the
  // old float cycle computation (floor(now/interval) + 1) scheduled the
  // cycle for the t=1.0 arrival AT t=1.0 itself. The integer-index
  // derivation must place it strictly after, at 6 * 0.2.
  EngineConfig config = quick_config(0.2);
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(1.0, 1.0, 1, 0.5)}, config);
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<Job> done = test::run_recorded(kernel, scheduler);
  const Job& job = done[0];
  EXPECT_GT(job.first_start, 1.0);
  EXPECT_NEAR(job.first_start, 1.2, 1e-9);
}

/// Records every popped event as (kind, time, job) through on_event.
class EventOrderRecorder final : public KernelObserver {
 public:
  struct Popped {
    EventKind kind;
    Time time;
    JobId job;
    friend bool operator==(const Popped&, const Popped&) = default;
  };

  void on_event(const SimKernel&, const Event& event) override {
    popped.push_back({event.kind, event.time, event.job});
  }

  std::vector<Popped> popped;
};

void PrintTo(const EventOrderRecorder::Popped& event, std::ostream* os) {
  *os << "(kind " << static_cast<int>(event.kind) << ", t " << event.time
      << ", job " << event.job << ")";
}

TEST(Engine, ArrivalPopsBeforeEveryQueuedEventAtTheSameTime) {
  // Job B arrives exactly at the t=100 batch cycle, C at A's t=150 job
  // end and D at site 1's scripted t=300 outage. Each arrival must pop
  // before the queued event it ties with, so B and D are in the batch the
  // tied cycle schedules. The cycle at 200 ties with B's end, which was
  // pushed first.
  const std::vector<Job> jobs = {
      make_job(0.0, 50.0, 1, 0.5), make_job(100.0, 50.0, 1, 0.5),
      make_job(150.0, 10.0, 1, 0.5), make_job(300.0, 10.0, 1, 0.5)};
  const std::vector<SiteOutage> outages = {{1, 300.0, 400.0}};
  SimKernel kernel({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}}, jobs,
                   quick_config(100.0), outages);
  EventOrderRecorder recorder;
  kernel.set_observer(&recorder);
  ScriptedScheduler scheduler({0});
  kernel.run(scheduler);

  using P = EventOrderRecorder::Popped;
  constexpr JobId kNone = kInvalidJob;
  const std::vector<P> expected = {
      {EventKind::kJobArrival, 0.0, 0},
      {EventKind::kJobArrival, 100.0, 1},
      {EventKind::kBatchCycle, 100.0, kNone},
      {EventKind::kJobArrival, 150.0, 2},
      {EventKind::kJobEnd, 150.0, 0},
      {EventKind::kJobEnd, 200.0, 1},
      {EventKind::kBatchCycle, 200.0, kNone},
      {EventKind::kJobEnd, 210.0, 2},
      {EventKind::kJobArrival, 300.0, 3},
      {EventKind::kSiteDown, 300.0, kNone},
      {EventKind::kBatchCycle, 300.0, kNone},
      {EventKind::kJobEnd, 310.0, 3}};
  EXPECT_EQ(recorder.popped, expected);
}

TEST(Engine, SchedulerSecondsAccumulate) {
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(i * 2.0, 5.0, 1, 0.7));
  SimKernel kernel({{0, 2, 1.0, 1.0}}, jobs, quick_config(10.0));
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  EXPECT_GE(kernel.counters().scheduler_seconds, 0.0);
  EXPECT_GE(kernel.counters().batch_invocations, 1u);
}

/// Pass-through probe for the one-lambda contract: on every batch the GA
/// problem built from the kernel's context carries Eq. 1 at `lambda` in
/// its pfail matrix, and each placement of a fresh (not secure_only) job
/// stays inside the f-risky cutoff at `lambda`.
class LambdaProbe final : public BatchScheduler {
 public:
  LambdaProbe(BatchScheduler& inner, double lambda, double f)
      : inner_(inner), lambda_(lambda), f_(f) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void schedule_into(const SchedulerContext& context,
                     std::vector<Assignment>& out) override {
    const core::GaProblem problem =
        core::build_problem(context, security::RiskPolicy::risky());
    for (std::size_t j = 0; j < problem.n_jobs(); ++j) {
      for (std::size_t s = 0; s < problem.sites.size(); ++s) {
        ++pfail_cells;
        if (problem.pfail_at(j, s) !=
            security::failure_probability(problem.jobs[j].demand,
                                          problem.sites[s].security, lambda_)) {
          ++pfail_mismatches;
        }
      }
    }
    inner_.schedule_into(context, out);
    for (const Assignment& assignment : out) {
      const BatchJob& job = context.jobs[assignment.job_index];
      if (job.secure_only) continue;
      const double p_fail = security::failure_probability(
          job.demand, context.sites[assignment.site].security, lambda_);
      if (p_fail > 0.0) ++risky_placements;
      if (p_fail > f_) ++cutoff_violations;
    }
  }

  std::size_t pfail_cells = 0;
  std::size_t pfail_mismatches = 0;
  std::size_t risky_placements = 0;
  std::size_t cutoff_violations = 0;

 private:
  BatchScheduler& inner_;
  double lambda_;
  double f_;
};

TEST(Engine, LambdaReachesEveryScheduler) {
  // EngineConfig::lambda is the run's only lambda: the f-risky heuristics
  // and the GA problem must see the kernel's 6, not the 2.5 default.
  constexpr double kLambda = 6.0;
  constexpr double kF = 0.5;
  const exp::Scenario scenario = exp::nas_scenario(200);
  const workload::Workload workload = exp::make_workload(scenario, 31);
  EngineConfig config = scenario.engine;
  config.lambda = kLambda;
  config.seed = 5;
  sched::MinMinScheduler min_min(security::RiskPolicy::f_risky(kF));
  sched::SufferageScheduler sufferage(security::RiskPolicy::f_risky(kF));
  for (BatchScheduler* inner : {static_cast<BatchScheduler*>(&min_min),
                                static_cast<BatchScheduler*>(&sufferage)}) {
    SimKernel kernel(workload.sites, workload.jobs, config);
    LambdaProbe probe(*inner, kLambda, kF);
    kernel.run(probe);
    EXPECT_GT(probe.pfail_cells, 0u) << inner->name();
    EXPECT_EQ(probe.pfail_mismatches, 0u) << inner->name();
    EXPECT_GT(probe.risky_placements, 0u) << inner->name();
    EXPECT_EQ(probe.cutoff_violations, 0u) << inner->name();
  }
}

}  // namespace
}  // namespace gridsched::sim
