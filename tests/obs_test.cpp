// Observability-layer tests: metric registry snapshot stability and
// collision rules, kernel observer callback order against a hand-checked
// churn timeline, trace-JSON byte determinism, the null-observer /
// attached-observer bit-identity guarantee, GA convergence-profile
// invariants, and the observer tee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <string>
#include <vector>

#include "core/ga_engine.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/ga_profile_json.hpp"
#include "obs/kernel_metrics.hpp"
#include "obs/metric_registry.hpp"
#include "obs/proc_stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_event.hpp"
#include "sim/observer.hpp"
#include "sim/process/arrival_process.hpp"
#include "sim/process/batch_cycle_process.hpp"
#include "sim/process/security_failure_process.hpp"
#include "sim/process/site_churn_process.hpp"
#include "util/log.hpp"

namespace gridsched {
namespace {

using sim::SimKernel;

sim::Job make_job(sim::Time arrival, double work, unsigned nodes,
                  double demand) {
  sim::Job job;
  job.arrival = arrival;
  job.work = work;
  job.nodes = nodes;
  job.demand = demand;
  return job;
}

sim::EngineConfig quick_config(sim::Time interval = 50.0) {
  sim::EngineConfig config;
  config.batch_interval = interval;
  config.detection = sim::FailureDetection::kAtEnd;
  return config;
}

/// Assigns every batch job to site 0 whenever the site is usable.
class PinScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "pin"; }
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    out.clear();
    if (!context.site_usable(0)) return;
    for (std::size_t j = 0; j < context.jobs.size(); ++j) {
      out.push_back({j, 0});
    }
  }
};

/// Flattens every callback into a line so tests can golden the order.
class RecordingObserver final : public sim::KernelObserver {
 public:
  std::vector<std::string> lines;

  void on_run_start(const SimKernel&) override { lines.push_back("start"); }
  void on_dispatch(const SimKernel&, sim::JobId job, sim::SiteId site,
                   const sim::NodeAvailability::Window& window, double,
                   unsigned serial) override {
    lines.push_back("dispatch j" + std::to_string(job) + " s" +
                    std::to_string(site) + " #" + std::to_string(serial) +
                    " @" + std::to_string(static_cast<int>(window.start)));
  }
  void on_job_complete(const SimKernel&, sim::JobId job, sim::SiteId,
                       sim::Time time) override {
    lines.push_back("complete j" + std::to_string(job) + " @" +
                    std::to_string(static_cast<int>(time)));
  }
  void on_attempt_failure(const SimKernel&, sim::JobId job, sim::SiteId,
                          sim::Time) override {
    lines.push_back("fail j" + std::to_string(job));
  }
  void on_revoke(const SimKernel&, sim::JobId job, sim::SiteId,
                 sim::Time time) override {
    lines.push_back("revoke j" + std::to_string(job) + " @" +
                    std::to_string(static_cast<int>(time)));
  }
  void on_cycle(const SimKernel&, sim::Time now, std::size_t batch_jobs,
                std::size_t assigned, double) override {
    lines.push_back("cycle @" + std::to_string(static_cast<int>(now)) +
                    " batch=" + std::to_string(batch_jobs) +
                    " assigned=" + std::to_string(assigned));
  }
  void on_run_end(const SimKernel&) override { lines.push_back("end"); }
};

/// One 1-node site, one job running [50, 150), outage [100, 120): the
/// timeline sim_churn_test hand-checks, here observed from the outside.
void run_churn_timeline(SimKernel& kernel, sim::BatchScheduler& scheduler) {
  sim::ArrivalProcess arrival;
  sim::SecurityFailureProcess failure;
  sim::BatchCycleProcess batch(scheduler, failure);
  sim::SiteChurnProcess churn({{0, 100.0, 120.0}});
  kernel.add_process(arrival);
  kernel.add_process(batch);
  kernel.add_process(failure);
  kernel.add_process(churn);
  kernel.run();
}

// ------------------------------------------------------------- registry ---

TEST(MetricRegistry, SnapshotIsStableAndSorted) {
  const auto drive = [](obs::MetricRegistry& registry) {
    registry.counter("b.count").inc(3);
    registry.counter("a.count").inc();
    registry.gauge("z.gauge").set(2.5);
    auto& histogram = registry.histogram("m.hist", 0.0, 10.0, 4);
    histogram.observe(1.0);
    histogram.observe(9.5);
    histogram.observe(42.0);  // overflow bucket
  };
  obs::MetricRegistry first;
  obs::MetricRegistry second;
  drive(first);
  drive(second);
  EXPECT_EQ(first.snapshot_json(), second.snapshot_json());

  const std::string snapshot = first.snapshot_json();
  // Lexicographic member order inside each section.
  EXPECT_LT(snapshot.find("a.count"), snapshot.find("b.count"));
  EXPECT_NE(snapshot.find("\"z.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(snapshot.find("\"overflow\": 1"), std::string::npos);
  EXPECT_NE(snapshot.find("\"count\": 3"), std::string::npos);
}

TEST(MetricRegistry, HandlesAreStableAndFindOrCreate) {
  obs::MetricRegistry registry;
  EXPECT_TRUE(registry.empty());
  obs::Counter& counter = registry.counter("kernel.dispatches");
  counter.inc(7);
  // Re-requesting the same name returns the same metric.
  EXPECT_EQ(&registry.counter("kernel.dispatches"), &counter);
  EXPECT_EQ(registry.counter("kernel.dispatches").value(), 7u);
  EXPECT_FALSE(registry.empty());
}

TEST(MetricRegistry, KindCollisionsAndBoundsMismatchesThrow) {
  obs::MetricRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x", 0.0, 1.0, 2), std::logic_error);
  registry.histogram("h", 0.0, 10.0, 4);
  EXPECT_THROW(registry.histogram("h", 0.0, 20.0, 4), std::logic_error);
  EXPECT_THROW(registry.histogram("h", 0.0, 10.0, 8), std::logic_error);
  EXPECT_NO_THROW(registry.histogram("h", 0.0, 10.0, 4));
}

// ------------------------------------------------------------- observer ---

TEST(KernelObserver, ChurnTimelineCallbackOrder) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  PinScheduler scheduler;
  RecordingObserver recorder;
  kernel.set_observer(&recorder);
  run_churn_timeline(kernel, scheduler);

  const std::vector<std::string> expected = {
      "start",
      "cycle @50 batch=1 assigned=1",
      "dispatch j0 s0 #1 @50",
      "revoke j0 @100",
      "cycle @100 batch=1 assigned=0",
      "cycle @150 batch=1 assigned=1",
      "dispatch j0 s0 #2 @150",
      "complete j0 @250",
      "end",
  };
  EXPECT_EQ(recorder.lines, expected);
}

TEST(KernelObserver, FailureCallbackPrecedesItsRevocation) {
  // A realistic run with security failures: every on_attempt_failure must
  // be immediately followed by the on_revoke of the same job (the kernel
  // releases the attempt as part of handling the failed end event).
  RecordingObserver recorder;
  exp::RunHooks hooks;
  hooks.observer = &recorder;
  const exp::Scenario scenario = exp::psa_scenario(40);
  const metrics::RunMetrics run = exp::run_once(
      scenario,
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5)), 7,
      nullptr, hooks);
  ASSERT_GT(run.n_fail, 0u) << "scenario stopped producing failures; pick "
                               "another seed for this test";
  std::size_t failures_seen = 0;
  for (std::size_t i = 0; i < recorder.lines.size(); ++i) {
    if (recorder.lines[i].rfind("fail j", 0) != 0) continue;
    ++failures_seen;
    ASSERT_LT(i + 1, recorder.lines.size());
    const std::string expected_next =
        "revoke" + recorder.lines[i].substr(4);  // same " jN" suffix
    EXPECT_EQ(recorder.lines[i + 1].rfind(expected_next, 0), 0u)
        << "failure at line " << i << " not followed by its revocation";
  }
  EXPECT_GE(failures_seen, run.n_fail);
}

TEST(KernelObserver, AttachedObserverLeavesRunBitIdentical) {
  const exp::Scenario scenario = exp::psa_scenario(40);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5));
  const metrics::RunMetrics plain = exp::run_once(scenario, spec, 7);

  obs::MetricRegistry registry;
  obs::KernelMetricsObserver metrics_observer(registry);
  obs::SimTraceRecorder trace;
  sim::KernelObserverTee tee;
  tee.add(&metrics_observer);
  tee.add(&trace);
  exp::RunHooks hooks;
  hooks.observer = &tee;
  const metrics::RunMetrics observed =
      exp::run_once(scenario, spec, 7, nullptr, hooks);

  // Every deterministic metric must match exactly; scheduler_seconds is
  // host wall clock and deliberately excluded.
  EXPECT_EQ(plain.n_jobs, observed.n_jobs);
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.avg_response, observed.avg_response);
  EXPECT_EQ(plain.slowdown_ratio, observed.slowdown_ratio);
  EXPECT_EQ(plain.avg_utilization, observed.avg_utilization);
  EXPECT_EQ(plain.n_risk, observed.n_risk);
  EXPECT_EQ(plain.n_fail, observed.n_fail);
  EXPECT_EQ(plain.batch_invocations, observed.batch_invocations);
  EXPECT_EQ(plain.site_down_events, observed.site_down_events);
  EXPECT_EQ(plain.interruptions, observed.interruptions);

  // And the observers saw a consistent run.
  EXPECT_EQ(registry.counter("kernel.completions").value(), plain.n_jobs);
  EXPECT_GT(trace.size(), 0u);
}

// ---------------------------------------------------------------- trace ---

TEST(SimTraceRecorder, TraceIsByteDeterministic) {
  const exp::Scenario scenario = exp::psa_scenario(40);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5));
  const auto record = [&] {
    obs::SimTraceRecorder trace;
    exp::RunHooks hooks;
    hooks.observer = &trace;
    exp::run_once(scenario, spec, 7, nullptr, hooks);
    return trace.render();
  };
  const std::string first = record();
  const std::string second = record();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  // Wall clock must never leak into the trace (structure carries only
  // ph/cat/pid/tid/ts/dur/args fields derived from simulated time).
  EXPECT_EQ(first.find("wall"), std::string::npos);
  EXPECT_EQ(first.find("scheduler_seconds"), std::string::npos);
}

TEST(SimTraceRecorder, ChurnTimelineSpans) {
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  PinScheduler scheduler;
  obs::SimTraceRecorder trace;
  kernel.set_observer(&trace);
  run_churn_timeline(kernel, scheduler);

  const std::string rendered = trace.render();
  // The interrupted first attempt, the outage span, the churn instants
  // and the successful second attempt all render.
  EXPECT_NE(rendered.find("job 0 (interrupted)"), std::string::npos);
  EXPECT_NE(rendered.find("\"outage\""), std::string::npos);
  EXPECT_NE(rendered.find("site down"), std::string::npos);
  EXPECT_NE(rendered.find("site up"), std::string::npos);
  EXPECT_NE(rendered.find("\"name\": \"job 0\""), std::string::npos);
  // ts is microseconds of simulated time (shortest-exact form): the
  // second attempt starts at 150 s = 1.5e8 us.
  EXPECT_NE(rendered.find("\"ts\": 1.5e+08"), std::string::npos);
}

// ------------------------------------------------------------ timeseries ---

TEST(TimeSeriesProbe, RejectsNonPositiveInterval) {
  EXPECT_THROW(obs::TimeSeriesProbe(0.0), std::invalid_argument);
  EXPECT_THROW(obs::TimeSeriesProbe(-5.0), std::invalid_argument);
  EXPECT_THROW(obs::TimeSeriesProbe(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(obs::TimeSeriesProbe(0.25));
}

TEST(TimeSeriesProbe, ChurnTimelineSamplesAreHandCheckable) {
  // The hand-checked churn timeline (job [50,150) interrupted by the
  // [100,120) outage, re-run [150,250)) sampled every 60 s. Each boundary
  // reflects the state after all events strictly before it: at t=120 the
  // site-up event (at exactly 120) has not been applied yet, so the site
  // still reads down; the 250 row is the terminal makespan sample.
  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  PinScheduler scheduler;
  obs::TimeSeriesProbe probe(60.0);
  kernel.set_observer(&probe);
  run_churn_timeline(kernel, scheduler);

  EXPECT_EQ(render_timeseries_csv(probe.series()),
            "t,ready,in_flight,sites_up,completed,failures,interruptions,"
            "busy_0\n"
            "0,0,0,1,0,0,0,0\n"
            "6e+01,0,1,1,0,0,0,1\n"
            "1.2e+02,1,0,0,0,0,1,0\n"
            "1.8e+02,0,1,1,0,0,1,1\n"
            "2.4e+02,0,1,1,0,0,1,1\n"
            "2.5e+02,0,0,1,1,0,1,0\n");
}

TEST(TimeSeriesProbe, AttachedProbeLeavesRunBitIdentical) {
  const exp::Scenario scenario = exp::psa_scenario(40);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5));
  const metrics::RunMetrics plain = exp::run_once(scenario, spec, 7);

  obs::TimeSeriesProbe probe(500.0);
  exp::RunHooks hooks;
  hooks.observer = &probe;
  const metrics::RunMetrics observed =
      exp::run_once(scenario, spec, 7, nullptr, hooks);

  EXPECT_EQ(plain.n_jobs, observed.n_jobs);
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.avg_response, observed.avg_response);
  EXPECT_EQ(plain.slowdown_ratio, observed.slowdown_ratio);
  EXPECT_EQ(plain.n_risk, observed.n_risk);
  EXPECT_EQ(plain.n_fail, observed.n_fail);
  EXPECT_EQ(plain.interruptions, observed.interruptions);

  const obs::TimeSeries& series = probe.series();
  ASSERT_FALSE(series.samples.empty());
  EXPECT_EQ(series.samples.front().t, 0.0);
  // Terminal sample: full state at the makespan.
  EXPECT_EQ(series.samples.back().t, plain.makespan);
  EXPECT_EQ(series.samples.back().completed, plain.n_jobs);
  EXPECT_EQ(series.samples.back().in_flight, 0u);
}

TEST(TimeSeriesProbe, RendersAndCounterMergeAreByteDeterministic) {
  const exp::Scenario scenario = exp::psa_scenario(40);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5));
  const auto record = [&] {
    obs::TimeSeriesProbe probe(500.0);
    obs::SimTraceRecorder trace;
    sim::KernelObserverTee tee;
    tee.add(&probe);
    tee.add(&trace);
    exp::RunHooks hooks;
    hooks.observer = &tee;
    exp::run_once(scenario, spec, 7, nullptr, hooks);
    trace.merge_counters(probe.series());
    return std::make_pair(render_timeseries_json(probe.series()),
                          trace.render());
  };
  const auto [first_series, first_trace] = record();
  const auto [second_series, second_trace] = record();
  EXPECT_EQ(first_series, second_series);
  EXPECT_EQ(first_trace, second_trace);

  EXPECT_NE(first_series.find("\"schema\": \"gridsched-timeseries-v1\""),
            std::string::npos);
  // The merged counter tracks render as Chrome "C" events with the three
  // telemetry groups; wall clock never leaks in.
  EXPECT_NE(first_trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(first_trace.find("\"name\": \"kernel load\""), std::string::npos);
  EXPECT_NE(first_trace.find("\"name\": \"sites up\""), std::string::npos);
  EXPECT_NE(first_trace.find("\"name\": \"outcomes\""), std::string::npos);
  EXPECT_EQ(first_trace.find("wall"), std::string::npos);
}

// ----------------------------------------------------------- GA profile ---

core::GaProblem spread_problem() {
  sim::SchedulerContext context;
  context.now = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    context.sites.push_back({static_cast<sim::SiteId>(s), 1u, 1.0, 1.0});
    context.avail.emplace_back(1u, 0.0);
  }
  for (std::size_t j = 0; j < 8; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = 1.0;
    job.nodes = 1;
    job.demand = 0.5;
    context.jobs.push_back(job);
  }
  return core::build_problem(context, security::RiskPolicy::risky());
}

TEST(GaProfile, ProfilingIsObservationOnly) {
  const core::GaProblem problem = spread_problem();
  core::GaParams params;
  params.population = 30;
  params.generations = 12;

  util::Rng plain_rng(11);
  const core::GaResult plain = core::evolve(problem, {}, params, plain_rng);

  util::Rng profiled_rng(11);
  core::GaProfile profile;
  const core::GaResult profiled =
      core::evolve(problem, {}, params, profiled_rng, nullptr, &profile);

  // Bit-identical result with the profile attached.
  EXPECT_EQ(plain.best, profiled.best);
  EXPECT_EQ(plain.best_fitness, profiled.best_fitness);
  EXPECT_EQ(plain.best_per_generation, profiled.best_per_generation);
  EXPECT_EQ(plain.evaluations, profiled.evaluations);
  EXPECT_EQ(plain.memo_hits, profiled.memo_hits);

  // One row per evaluation round; per-generation deltas sum to the
  // totals; the best series mirrors the result's.
  ASSERT_EQ(profile.generations.size(), params.generations + 1);
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
  for (std::size_t g = 0; g < profile.generations.size(); ++g) {
    evaluations += profile.generations[g].evaluations;
    memo_hits += profile.generations[g].memo_hits;
    EXPECT_EQ(profile.generations[g].best, profiled.best_per_generation[g]);
    EXPECT_GE(profile.generations[g].wall_ms, 0.0);
  }
  EXPECT_EQ(evaluations, profiled.evaluations);
  EXPECT_EQ(memo_hits, profiled.memo_hits);
  EXPECT_GE(profile.total_wall_ms, 0.0);
}

TEST(GaProfile, JsonRenderIsWellFormed) {
  const core::GaProblem problem = spread_problem();
  core::GaParams params;
  params.population = 20;
  params.generations = 4;
  util::Rng rng(3);
  core::GaProfile profile;
  core::evolve(problem, {}, params, rng, nullptr, &profile);

  const std::string json = obs::render_ga_profiles({profile});
  EXPECT_NE(json.find("\"invocations\""), std::string::npos);
  EXPECT_NE(json.find("\"generations\""), std::string::npos);
  EXPECT_NE(json.find("\"memo_hits\""), std::string::npos);
  // 5 generation rows render.
  std::size_t rows = 0;
  for (std::size_t at = json.find("\"wall_ms\""); at != std::string::npos;
       at = json.find("\"wall_ms\"", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, params.generations + 1);
}

// ------------------------------------------------------------------ tee ---

TEST(KernelObserverTee, ForwardsToEveryObserverAndIgnoresNull) {
  RecordingObserver first;
  RecordingObserver second;
  sim::KernelObserverTee tee;
  EXPECT_TRUE(tee.empty());
  tee.add(nullptr);
  EXPECT_TRUE(tee.empty());
  tee.add(&first);
  tee.add(&second);
  EXPECT_FALSE(tee.empty());

  SimKernel kernel({{0, 1, 1.0, 1.0}}, {make_job(0.0, 100.0, 1, 0.5)},
                   quick_config(50.0));
  PinScheduler scheduler;
  kernel.set_observer(&tee);
  run_churn_timeline(kernel, scheduler);

  EXPECT_FALSE(first.lines.empty());
  EXPECT_EQ(first.lines, second.lines);
}

// ------------------------------------------------------------------ misc ---

TEST(LogLevel, ParseRoundTripAndRejects) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
  EXPECT_THROW(util::parse_log_level("verbose"), std::invalid_argument);
  EXPECT_NE(std::string(util::log_level_names()).find("warn"),
            std::string::npos);
}

TEST(ProcStats, PeakRssIsPlausible) {
  const std::uint64_t rss = obs::peak_rss_bytes();
  // 0 is the documented "unsupported platform" fallback; on Linux/macOS a
  // test binary comfortably exceeds 1 MiB and stays under 100 GiB.
  if (rss != 0) {
    EXPECT_GT(rss, std::uint64_t{1} << 20);
    EXPECT_LT(rss, std::uint64_t{100} << 30);
  }
}

#if defined(__linux__)
TEST(ProcStats, PeakRssIsThisImagesHighWaterMark) {
  // Read the current RSS first: the peak read after it covers it. Linux
  // serves the peak from VmHWM, which belongs to this process image only
  // (ru_maxrss would also carry a forking parent's resident set).
  const std::uint64_t current = obs::current_rss_bytes();
  const std::uint64_t peak = obs::peak_rss_bytes();
  EXPECT_GT(current, 0u);
  EXPECT_GT(peak, 0u);
  EXPECT_GE(peak, current);
}
#endif

}  // namespace
}  // namespace gridsched
