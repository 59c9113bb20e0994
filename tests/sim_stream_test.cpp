// Streaming-kernel regression suite: every registry scenario must
// reproduce its golden digest (metrics, trace bytes, timeseries bytes),
// slots must recycle under churn without retiring revoked jobs early, and
// the 1e5-job streaming scenario must run to completion in O(active)
// memory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "metrics/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_event.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"
#include "workload/stream.hpp"
#include "workload/synth/stream_gen.hpp"

namespace gridsched {
namespace {

struct RunArtifacts {
  metrics::RunMetrics metrics;
  std::string trace;
  std::string timeseries;
  std::size_t peak_slots = 0;
  std::size_t retired = 0;
};

/// Run `workload` through a fresh MinMin f-risky engine, capturing every
/// byte-stable artifact the run produces.
RunArtifacts run_workload(const workload::Workload& workload,
                          sim::EngineConfig config) {
  obs::SimTraceRecorder trace;
  obs::TimeSeriesProbe probe(500.0);
  sim::KernelObserverTee tee;
  tee.add(&trace);
  tee.add(&probe);

  sim::SimKernel kernel(workload.sites,
                        std::make_unique<workload::MaterializedStream>(
                            workload.jobs, workload.exec),
                        config, workload.churn);
  kernel.set_observer(&tee);
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  RunArtifacts artifacts;
  artifacts.metrics = metrics::compute_metrics(kernel);
  artifacts.trace = trace.render();
  artifacts.timeseries = obs::render_timeseries_json(probe.series());
  artifacts.peak_slots = kernel.peak_slots();
  artifacts.retired = kernel.retired_jobs();
  return artifacts;
}

/// 64-bit FNV-1a over every deterministic RunMetrics field
/// (scheduler_seconds is wall clock and left out) and the rendered trace
/// and timeseries bytes. Numbers are hashed as 8-byte little-endian bit
/// patterns, so a digest does not depend on the host's byte order.
std::uint64_t digest(const RunArtifacts& run) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto byte = [&hash](unsigned char b) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  };
  const auto u64 = [&byte](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<unsigned char>(value >> shift));
    }
  };
  const auto f64 = [&u64](double value) {
    u64(std::bit_cast<std::uint64_t>(value));
  };
  const auto text = [&](const std::string& value) {
    u64(value.size());
    for (const char c : value) byte(static_cast<unsigned char>(c));
  };
  const metrics::RunMetrics& m = run.metrics;
  for (const std::size_t count :
       {m.n_jobs, m.n_risk, m.n_fail, m.total_attempts, m.failure_events,
        m.risky_attempts, m.released_nodes, m.unreleased_nodes,
        m.site_down_events, m.site_up_events, m.interruptions,
        m.n_interrupted, m.churn_released_nodes, m.churn_unreleased_nodes,
        m.batch_invocations, m.idle_sites}) {
    u64(count);
  }
  for (const double value :
       {m.makespan, m.avg_response, m.avg_final_exec, m.slowdown_ratio,
        m.mean_job_slowdown, m.avg_utilization}) {
    f64(value);
  }
  u64(m.site_utilization.size());
  for (const double value : m.site_utilization) f64(value);
  text(run.trace);
  text(run.timeseries);
  return hash;
}

// Golden digests of each registry scenario (80 jobs, workload seed 17,
// engine seed 9, MinMin f-risky 0.5), captured at commit 78b089e from the
// kernel mode that materialized the whole job vector up front. The single
// stream-fed kernel must reproduce them bit for bit. A deliberate
// behaviour change re-captures them; say so when it happens.
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"nas", 0x393fdef8177a19dcULL},
      {"psa", 0x319b867796133ed1ULL},
      {"synth-batch", 0x25f1d568b3714563ULL},
      {"synth-bursty", 0x0fd4a9f6e411d30fULL},
      {"synth-churn-hi", 0x81b96654af950b54ULL},
      {"synth-churn-lo", 0x7daac3e359dbebdcULL},
      {"synth-consistent-hihi", 0x83685f8a2e41a2fcULL},
      {"synth-consistent-lolo", 0xd1b9b7beaf35084aULL},
      {"synth-inconsistent-hihi", 0x199d9dbbfca8a846ULL},
      {"synth-inconsistent-lolo", 0x048cfa9fb372799fULL},
      {"synth-risky", 0x675dd98610237550ULL},
      {"synth-secure", 0x05be2e239bc9944fULL},
      {"synth-semi-hihi", 0x682ddc04650aebadULL},
      {"synth-semi-lolo", 0xfdc5a8a274062a6cULL},
      {"synth-stream-hi", 0x09da797211b19982ULL},
      {"synth-stream-med", 0xffb68c6de710f146ULL},
  };
  return kDigests;
}

TEST(StreamKernel, RegistryRunsReproduceGoldenDigests) {
  const std::vector<std::string> names = exp::scenario_names();
  EXPECT_EQ(names.size(), golden_digests().size())
      << "a scenario was added or removed; capture or drop its digest";
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const exp::Scenario scenario = exp::make_scenario(name, 80);
    const workload::Workload workload = exp::make_workload(scenario, 17);
    sim::EngineConfig config = scenario.engine;
    config.seed = 9;
    const RunArtifacts run = run_workload(workload, config);
    const auto golden = golden_digests().find(name);
    ASSERT_NE(golden, golden_digests().end()) << "no golden digest";
    EXPECT_EQ(digest(run), golden->second)
        << std::hex << "digest 0x" << digest(run);
    // Every job retires, and slots recycle as they do.
    EXPECT_EQ(run.retired, workload.jobs.size());
    EXPECT_LE(run.peak_slots, workload.jobs.size());
  }
}

/// Observer asserting the retirement frontier's safety invariants at every
/// callback: no live callback may name a retired id, and the frontier can
/// never outrun the completions actually observed (a revoked-then-pending
/// job must hold the frontier back until it really completes).
class FrontierInvariantObserver final : public sim::KernelObserver {
 public:
  void on_dispatch(const sim::SimKernel& kernel, sim::JobId job, sim::SiteId,
                   const sim::NodeAvailability::Window&, double,
                   unsigned) override {
    EXPECT_FALSE(kernel.is_retired(job)) << "dispatched job " << job;
  }
  void on_revoke(const sim::SimKernel& kernel, sim::JobId job, sim::SiteId,
                 sim::Time) override {
    ++revocations;
    EXPECT_FALSE(kernel.is_retired(job)) << "revoked job " << job;
    EXPECT_LE(kernel.retired_jobs(), completions);
  }
  void on_job_complete(const sim::SimKernel& kernel, sim::JobId job,
                       sim::SiteId, sim::Time) override {
    ++completions;
    EXPECT_FALSE(kernel.is_retired(job)) << "completed job " << job;
    EXPECT_LE(kernel.retired_jobs(), completions);
  }

  std::size_t revocations = 0;
  std::size_t completions = 0;
};

TEST(StreamKernel, SlotRecyclingHoldsFrontierThroughChurn) {
  const exp::Scenario scenario = exp::make_scenario("synth-churn-hi", 150);
  const workload::Workload workload = exp::make_workload(scenario, 5);
  sim::EngineConfig config = scenario.engine;
  config.seed = 11;
  sim::SimKernel kernel(workload.sites,
                        std::make_unique<workload::MaterializedStream>(
                            workload.jobs, workload.exec),
                        config, workload.churn);
  FrontierInvariantObserver invariants;
  kernel.set_observer(&invariants);
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  EXPECT_GT(invariants.revocations, 0u)
      << "churn scenario produced no interruptions; the frontier "
         "invariant was not exercised — pick another seed";
  EXPECT_EQ(invariants.completions, workload.jobs.size());
  EXPECT_EQ(kernel.retired_jobs(), workload.jobs.size());
  EXPECT_EQ(kernel.retirement().jobs(), workload.jobs.size());
  // Arrivals trickle in over the horizon while completed jobs retire, so
  // the slot table's high-water mark stays below the total job count.
  EXPECT_LT(kernel.peak_slots(), workload.jobs.size());
}

/// Fixed-size scripted stream for the error paths.
class ScriptedStream final : public workload::JobStream {
 public:
  ScriptedStream(std::vector<sim::Job> jobs, std::size_t claimed)
      : jobs_(std::move(jobs)), claimed_(claimed) {}
  [[nodiscard]] std::size_t size() const noexcept override { return claimed_; }
  bool next(sim::Job& job) override {
    if (cursor_ == jobs_.size()) return false;
    job = jobs_[cursor_++];
    return true;
  }

 private:
  std::vector<sim::Job> jobs_;
  std::size_t claimed_;
  std::size_t cursor_ = 0;
};

sim::Job stream_job(sim::Time arrival) {
  sim::Job job;
  job.arrival = arrival;
  job.work = 10.0;
  job.nodes = 1;
  job.demand = 0.5;
  return job;
}

sim::EngineConfig quick_config() {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  config.detection = sim::FailureDetection::kAtEnd;
  return config;
}

TEST(StreamKernel, NullStreamIsRejected) {
  EXPECT_THROW(sim::SimKernel({{0, 1, 1.0, 1.0}},
                              std::unique_ptr<workload::JobStream>{},
                              quick_config()),
               std::invalid_argument);
}

TEST(StreamKernel, ShortStreamThrowsWithProgressCount) {
  auto stream = std::make_unique<ScriptedStream>(
      std::vector<sim::Job>{stream_job(0.0), stream_job(1.0)}, 5);
  sim::SimKernel kernel({{0, 4, 1.0, 1.0}}, std::move(stream), quick_config());
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  try {
    kernel.run(scheduler);
    FAIL() << "short stream did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("job stream ended after 2 of 5"),
              std::string::npos)
        << error.what();
  }
}

// A stream that yields ETC rows is the run's execution model: its rows
// must span the grid.
TEST(StreamKernel, EtcRowStreamMustMatchTheGrid) {
  const exp::Scenario scenario = exp::make_scenario("synth-semi-lolo", 20);
  workload::synth::StreamWorkload narrow =
      exp::make_stream_workload(scenario, 5);
  ASSERT_EQ(narrow.jobs->row_sites(), narrow.sites.size());
  narrow.sites.pop_back();
  EXPECT_THROW(sim::SimKernel(std::move(narrow.sites), std::move(narrow.jobs),
                              scenario.engine),
               std::invalid_argument);
}

TEST(StreamKernel, DescribeUnfinishedCoversUnadmittedJobs) {
  auto stream = std::make_unique<ScriptedStream>(
      std::vector<sim::Job>{stream_job(0.0), stream_job(1.0)}, 2);
  sim::SimKernel kernel({{0, 4, 1.0, 1.0}}, std::move(stream), quick_config());
  // Before run() nothing is admitted: every job reports as pending.
  const std::string text = kernel.describe_unfinished(0.0);
  EXPECT_NE(text.find("2 of 2 job(s) unfinished"), std::string::npos) << text;
  EXPECT_NE(text.find("0 (pending), 1 (pending)"), std::string::npos) << text;
}

TEST(StreamKernel, HundredThousandJobStreamStaysSmall) {
  // The Debug-friendly streaming smoke: the full synth-stream-med scenario
  // (1e5 jobs / 100 sites) must run to completion with a slot table orders
  // of magnitude below the job count — the O(active) memory claim.
  const exp::Scenario scenario = exp::make_scenario("synth-stream-med", 0);
  workload::synth::StreamWorkload stream = exp::make_stream_workload(scenario,
                                                                     3);
  sim::EngineConfig config = scenario.engine;
  config.seed = 21;
  sim::SimKernel kernel(std::move(stream.sites), std::move(stream.jobs),
                        config, std::move(stream.churn));
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  const metrics::RunMetrics run = metrics::compute_metrics(kernel);
  EXPECT_EQ(run.n_jobs, 100000u);
  EXPECT_EQ(kernel.retired_jobs(), 100000u);
  EXPECT_GT(run.makespan, 0.0);
  // ~0.25 jobs/s at ~2.6 ks response keeps a few thousand jobs in flight;
  // anything near 1e5 means slots stopped recycling.
  EXPECT_LT(kernel.peak_slots(), 16384u);
}

TEST(StreamKernel, RunOnceStreamsAndMatchesMaterializedDrain) {
  // run_once on a streaming scenario must agree with a run over the
  // drained vector of the same (scenario, seed) — the runner derives the
  // workload seed from the cell seed, so reproduce that here.
  const exp::Scenario scenario = exp::make_scenario("synth-stream-med", 400);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("mct", security::RiskPolicy::f_risky(0.5));
  const metrics::RunMetrics streamed = exp::run_once(scenario, spec, 7);

  const std::uint64_t workload_seed = util::Rng::child(7, 1).next_u64();
  const std::uint64_t engine_seed = util::Rng::child(7, 2).next_u64();
  const workload::Workload drained = exp::make_workload(scenario,
                                                        workload_seed);
  sim::EngineConfig config = scenario.engine;
  config.seed = engine_seed;
  sim::SimKernel kernel(drained.sites,
                        std::make_unique<workload::MaterializedStream>(
                            drained.jobs, drained.exec),
                        config, drained.churn);
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);
  const metrics::RunMetrics drain = metrics::compute_metrics(kernel);

  EXPECT_EQ(streamed.n_jobs, drain.n_jobs);
  EXPECT_EQ(streamed.makespan, drain.makespan);
  EXPECT_EQ(streamed.avg_response, drain.avg_response);
  EXPECT_EQ(streamed.slowdown_ratio, drain.slowdown_ratio);
  EXPECT_EQ(streamed.n_risk, drain.n_risk);
  EXPECT_EQ(streamed.n_fail, drain.n_fail);
  EXPECT_EQ(streamed.site_utilization, drain.site_utilization);
}

/// Every deterministic RunMetrics field (scheduler_seconds is wall clock)
/// compared by bit pattern.
void expect_bit_equal(const metrics::RunMetrics& a,
                      const metrics::RunMetrics& b) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(a.n_jobs, b.n_jobs);
  EXPECT_EQ(a.n_risk, b.n_risk);
  EXPECT_EQ(a.n_fail, b.n_fail);
  EXPECT_EQ(a.total_attempts, b.total_attempts);
  EXPECT_EQ(a.failure_events, b.failure_events);
  EXPECT_EQ(a.risky_attempts, b.risky_attempts);
  EXPECT_EQ(a.released_nodes, b.released_nodes);
  EXPECT_EQ(a.unreleased_nodes, b.unreleased_nodes);
  EXPECT_EQ(a.site_down_events, b.site_down_events);
  EXPECT_EQ(a.site_up_events, b.site_up_events);
  EXPECT_EQ(a.interruptions, b.interruptions);
  EXPECT_EQ(a.n_interrupted, b.n_interrupted);
  EXPECT_EQ(a.churn_released_nodes, b.churn_released_nodes);
  EXPECT_EQ(a.churn_unreleased_nodes, b.churn_unreleased_nodes);
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(bits(a.avg_response), bits(b.avg_response));
  EXPECT_EQ(bits(a.avg_final_exec), bits(b.avg_final_exec));
  EXPECT_EQ(bits(a.slowdown_ratio), bits(b.slowdown_ratio));
  EXPECT_EQ(bits(a.mean_job_slowdown), bits(b.mean_job_slowdown));
  EXPECT_EQ(a.batch_invocations, b.batch_invocations);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.site_utilization.size(), b.site_utilization.size());
  for (std::size_t s = 0; s < a.site_utilization.size(); ++s) {
    EXPECT_EQ(bits(a.site_utilization[s]), bits(b.site_utilization[s]));
  }
  EXPECT_EQ(bits(a.avg_utilization), bits(b.avg_utilization));
  EXPECT_EQ(a.idle_sites, b.idle_sites);
}

// run_once feeds a kSynth run the generator cursor. Its metrics must equal,
// bit for bit, a kernel run over the materialized workload of the same
// (scenario, seed) behind a MaterializedStream: every registry kSynth
// scenario (batch, Poisson and bursty arrivals, churn), MCT and Min-Min.
TEST(StreamKernel, RunOnceStreamsSynthScenariosBitEqualToMaterializedRuns) {
  std::size_t synth_scenarios = 0;
  for (const std::string& name : exp::scenario_names()) {
    const exp::Scenario scenario = exp::make_scenario(name, 300);
    if (scenario.kind != exp::ScenarioKind::kSynth) continue;
    ++synth_scenarios;
    for (const char* algo : {"mct", "min-min"}) {
      for (const std::uint64_t seed : {7ULL, 20050419ULL}) {
        SCOPED_TRACE(name + " " + algo + " seed " + std::to_string(seed));
        const exp::AlgorithmSpec spec =
            exp::heuristic_spec(algo, security::RiskPolicy::f_risky(0.5));
        const metrics::RunMetrics streamed = exp::run_once(scenario, spec,
                                                           seed);

        // run_once derives the workload, engine and algorithm seeds as
        // child streams 1, 2 and 3 of the cell seed.
        workload::Workload materialized =
            exp::make_workload(scenario, util::Rng::child(seed, 1).next_u64());
        sim::EngineConfig config = scenario.engine;
        config.seed = util::Rng::child(seed, 2).next_u64();
        sim::SimKernel kernel(
            std::move(materialized.sites),
            std::make_unique<workload::MaterializedStream>(
                std::move(materialized.jobs), std::move(materialized.exec)),
            config, std::move(materialized.churn));
        const std::unique_ptr<sim::BatchScheduler> scheduler =
            spec.make(util::Rng::child(seed, 3).next_u64());
        kernel.run(*scheduler);
        expect_bit_equal(streamed, metrics::compute_metrics(kernel));
        if (name == "synth-churn-hi") {
          EXPECT_GT(streamed.interruptions, 0u)
              << "the churn scenario revoked nothing";
        }
      }
    }
  }
  EXPECT_GE(synth_scenarios, 10u);
}

}  // namespace
}  // namespace gridsched
