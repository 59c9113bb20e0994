// The paper's performance metrics (Section 4.1): makespan, average
// response time, slowdown ratio (Eq. 3), risk-taking/failed job counts and
// per-site utilization, plus scheduler-cost accounting.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/kernel.hpp"

namespace gridsched::metrics {

struct RunMetrics {
  std::size_t n_jobs = 0;
  /// Jobs that ever ran on a site with SL < SD (paper's N_risk).
  std::size_t n_risk = 0;
  /// Jobs that failed and were rescheduled (paper's N_fail; <= n_risk).
  std::size_t n_fail = 0;
  std::size_t total_attempts = 0;

  // --- engine counters surfaced per run (EngineCounters) ---
  std::size_t failure_events = 0;    ///< failure detections (attempts)
  std::size_t risky_attempts = 0;    ///< dispatches with P(fail) > 0
  std::size_t released_nodes = 0;    ///< failure-release reclaimed tails
  std::size_t unreleased_nodes = 0;  ///< failure-release shortfalls
  // --- site churn ---
  std::size_t site_down_events = 0;
  std::size_t site_up_events = 0;
  /// Attempts revoked by site-down events (sum of Job::interruptions).
  std::size_t interruptions = 0;
  /// Jobs interrupted at least once.
  std::size_t n_interrupted = 0;
  std::size_t churn_released_nodes = 0;
  std::size_t churn_unreleased_nodes = 0;

  double makespan = 0.0;           ///< max_i finish_i
  double avg_response = 0.0;       ///< mean(finish - arrival)
  double avg_final_exec = 0.0;     ///< mean(finish - last_start)
  /// Eq. 3: avg response / avg final execution (ratio of averages).
  double slowdown_ratio = 0.0;
  /// Companion statistic: mean over jobs of per-job slowdown.
  double mean_job_slowdown = 0.0;

  std::size_t batch_invocations = 0;
  /// Events the kernel popped, all kinds (EngineCounters::events summed).
  std::size_t events = 0;
  double scheduler_seconds = 0.0;  ///< wall time in schedule_into()

  std::vector<double> site_utilization;  ///< fraction in [0,1], per site
  double avg_utilization = 0.0;
  std::size_t idle_sites = 0;            ///< sites with utilization < 1%
};

/// Derive all metrics from a finished kernel run.
RunMetrics compute_metrics(const sim::SimKernel& kernel);

}  // namespace gridsched::metrics
