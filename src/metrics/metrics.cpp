#include "metrics/metrics.hpp"

#include <stdexcept>

namespace gridsched::metrics {

RunMetrics compute_metrics(const sim::SimKernel& kernel) {
  RunMetrics metrics;
  metrics.n_jobs = kernel.total_jobs();

  // Per-job sums come from the kernel's retirement accumulator, which
  // folded every job in as it completed — in id order, with the exact
  // floating-point operation sequence the former job loop here used, so
  // every derived field is bit-identical. This is what lets the streaming
  // kernel discard job records instead of holding all of them for a
  // post-run pass.
  const RetirementAccumulator& retired = kernel.retirement();
  if (retired.jobs() != kernel.total_jobs()) {
    throw std::invalid_argument(
        "compute_metrics: " + kernel.describe_unfinished(kernel.makespan()));
  }
  metrics.n_risk = retired.n_risk();
  metrics.n_fail = retired.n_fail();
  metrics.n_interrupted = retired.n_interrupted();
  metrics.total_attempts = retired.total_attempts();
  const double response_sum = retired.response_sum();
  const double exec_sum = retired.exec_sum();
  const double job_slowdown_sum = retired.job_slowdown_sum();

  metrics.makespan = kernel.makespan();
  if (metrics.n_jobs > 0) {
    const auto n = static_cast<double>(metrics.n_jobs);
    metrics.avg_response = response_sum / n;
    metrics.avg_final_exec = exec_sum / n;
    metrics.slowdown_ratio =
        exec_sum > 0.0 ? response_sum / exec_sum : 0.0;  // Eq. 3
    metrics.mean_job_slowdown = job_slowdown_sum / n;
  }

  const sim::EngineCounters& counters = kernel.counters();
  metrics.batch_invocations = counters.batch_invocations;
  for (const std::size_t count : counters.events) metrics.events += count;
  metrics.scheduler_seconds = counters.scheduler_seconds;
  metrics.failure_events = counters.failure_events;
  metrics.risky_attempts = counters.risky_attempts;
  metrics.released_nodes = counters.released_nodes;
  metrics.unreleased_nodes = counters.unreleased_nodes;
  metrics.site_down_events = counters.events_of(sim::EventKind::kSiteDown);
  metrics.site_up_events = counters.events_of(sim::EventKind::kSiteUp);
  metrics.interruptions = counters.interrupted_attempts;
  metrics.churn_released_nodes = counters.churn_released_nodes;
  metrics.churn_unreleased_nodes = counters.churn_unreleased_nodes;

  metrics.site_utilization.reserve(kernel.sites().size());
  double util_sum = 0.0;
  for (const sim::GridSite& site : kernel.sites()) {
    const double util = site.utilization(kernel.makespan());
    metrics.site_utilization.push_back(util);
    util_sum += util;
    if (util < 0.01) ++metrics.idle_sites;
  }
  if (!kernel.sites().empty()) {
    metrics.avg_utilization =
        util_sum / static_cast<double>(kernel.sites().size());
  }
  return metrics;
}

}  // namespace gridsched::metrics
