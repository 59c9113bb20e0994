// Streaming retirement accumulator: the kernel folds each job into this
// the moment it retires (in job-id order), so RunMetrics no longer needs
// the full job vector — the streaming kernel frees a job's slot right
// after retiring it and metrics::compute_metrics reads the sums instead.
//
// Bit-identity contract: add() performs the exact floating-point operation
// sequence the old compute_metrics job loop performed, and the kernel
// retires jobs strictly in id order (a completed job waits in its slot
// until every lower id has retired), so the accumulated sums — and every
// RunMetrics field derived from them — are bit-identical to the old job
// loop for any workload. This accumulator feeds byte-stable artifacts
// (campaign aggregates); it must never read wall clocks (lint GS-R02).
#pragma once

#include <cstddef>

#include "sim/job.hpp"

namespace gridsched::metrics {

class RetirementAccumulator {
 public:
  /// Fold one completed job in. Must be called in increasing job-id order
  /// (the kernel's retirement frontier guarantees it).
  void add(const sim::Job& job) noexcept {
    ++jobs_;
    if (job.took_risk) ++n_risk_;
    if (job.failures > 0) ++n_fail_;
    if (job.interruptions > 0) ++n_interrupted_;
    total_attempts_ += job.attempts;
    const double response = job.finish - job.arrival;
    const double final_exec = job.finish - job.last_start;
    response_sum_ += response;
    exec_sum_ += final_exec;
    if (final_exec > 0.0) job_slowdown_sum_ += response / final_exec;
  }

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t n_risk() const noexcept { return n_risk_; }
  [[nodiscard]] std::size_t n_fail() const noexcept { return n_fail_; }
  [[nodiscard]] std::size_t n_interrupted() const noexcept {
    return n_interrupted_;
  }
  [[nodiscard]] std::size_t total_attempts() const noexcept {
    return total_attempts_;
  }
  [[nodiscard]] double response_sum() const noexcept { return response_sum_; }
  [[nodiscard]] double exec_sum() const noexcept { return exec_sum_; }
  [[nodiscard]] double job_slowdown_sum() const noexcept {
    return job_slowdown_sum_;
  }

 private:
  std::size_t jobs_ = 0;
  std::size_t n_risk_ = 0;
  std::size_t n_fail_ = 0;
  std::size_t n_interrupted_ = 0;
  std::size_t total_attempts_ = 0;
  double response_sum_ = 0.0;
  double exec_sum_ = 0.0;
  double job_slowdown_sum_ = 0.0;
};

}  // namespace gridsched::metrics
