#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "sched/heuristics.hpp"

namespace gridsched::metrics {
namespace {

sim::Job make_job(double arrival, double work, unsigned nodes, double demand) {
  sim::Job job;
  job.arrival = arrival;
  job.work = work;
  job.nodes = nodes;
  job.demand = demand;
  return job;
}

/// One node, two safe jobs, interval 50: fully deterministic timeline.
sim::SimKernel deterministic_run() {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  sim::SimKernel kernel({{0, 1, 1.0, 1.0}},
                        {make_job(10.0, 100.0, 1, 0.8), make_job(20.0, 50.0, 1,
                                                                 0.8)},
                        config);
  static sched::MctScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  return kernel;
}

TEST(Metrics, HandComputedDeterministicTimeline) {
  // Batch at t=50: J0 runs 50..150, J1 runs 150..200 (MCT in batch order).
  const sim::SimKernel kernel = deterministic_run();
  const RunMetrics metrics = compute_metrics(kernel);

  EXPECT_EQ(metrics.n_jobs, 2u);
  EXPECT_DOUBLE_EQ(metrics.makespan, 200.0);
  // Responses: (150-10)=140, (200-20)=180 -> mean 160.
  EXPECT_DOUBLE_EQ(metrics.avg_response, 160.0);
  // Final execs: 100 and 50 -> mean 75.
  EXPECT_DOUBLE_EQ(metrics.avg_final_exec, 75.0);
  // Eq. 3: ratio of sums = 320 / 150.
  EXPECT_DOUBLE_EQ(metrics.slowdown_ratio, 320.0 / 150.0);
  // Per-job slowdowns: 1.4 and 3.6 -> mean 2.5.
  EXPECT_DOUBLE_EQ(metrics.mean_job_slowdown, 2.5);
  EXPECT_EQ(metrics.n_risk, 0u);
  EXPECT_EQ(metrics.n_fail, 0u);
  EXPECT_EQ(metrics.total_attempts, 2u);
  // Busy 150 node-seconds on a 1-node site over makespan 200.
  ASSERT_EQ(metrics.site_utilization.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.site_utilization[0], 0.75);
  EXPECT_DOUBLE_EQ(metrics.avg_utilization, 0.75);
  EXPECT_EQ(metrics.idle_sites, 0u);
  EXPECT_GE(metrics.batch_invocations, 1u);
}

TEST(Metrics, CountsRiskAndFailures) {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  config.lambda = 1000.0;  // certain failure on the risky site
  config.detection = sim::FailureDetection::kAtEnd;
  sim::SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                        {make_job(0.0, 100.0, 1, 0.9)}, config);
  sched::MetScheduler scheduler(security::RiskPolicy::risky());
  kernel.run(scheduler);
  const RunMetrics metrics = compute_metrics(kernel);
  EXPECT_EQ(metrics.n_risk, 1u);
  EXPECT_EQ(metrics.n_fail, 1u);
  EXPECT_EQ(metrics.total_attempts, 2u);
  EXPECT_LE(metrics.n_fail, metrics.n_risk);
}

TEST(Metrics, IdleSiteDetection) {
  sim::EngineConfig config;
  config.batch_interval = 10.0;
  // Second site is unusably slow-secured for this demand under secure mode.
  sim::SimKernel kernel({{0, 1, 1.0, 0.95}, {1, 1, 1.0, 0.45}},
                        {make_job(0.0, 30.0, 1, 0.9)}, config);
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  const RunMetrics metrics = compute_metrics(kernel);
  EXPECT_EQ(metrics.idle_sites, 1u);
  EXPECT_DOUBLE_EQ(metrics.site_utilization[1], 0.0);
}

}  // namespace
}  // namespace gridsched::metrics
