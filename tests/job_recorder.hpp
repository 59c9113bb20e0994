// Test-only observer that keeps a copy of every job's final record. The
// kernel retires a completed job's slot right after on_job_complete, so
// tests that inspect per-job outcomes after run() read this copy, never
// the kernel's slot table.
#pragma once

#include <utility>
#include <vector>

#include "sim/kernel.hpp"

namespace gridsched::test {

class JobRecorder final : public sim::KernelObserver {
 public:
  /// The record is final here and not yet retired.
  void on_job_complete(const sim::SimKernel& kernel, sim::JobId job,
                       sim::SiteId /*site*/, sim::Time /*time*/) override {
    if (job >= jobs.size()) jobs.resize(static_cast<std::size_t>(job) + 1);
    jobs[job] = kernel.job(job);
  }

  /// Final record per job id (default-constructed until it completes).
  std::vector<sim::Job> jobs;
};

/// Runs `kernel` with a JobRecorder attached; returns the final records.
/// An observer already attached to `kernel` keeps receiving every
/// callback.
inline std::vector<sim::Job> run_recorded(sim::SimKernel& kernel,
                                          sim::BatchScheduler& scheduler) {
  sim::KernelObserver* const attached = kernel.observer();
  JobRecorder recorder;
  sim::KernelObserverTee tee;
  tee.add(attached);
  tee.add(&recorder);
  kernel.set_observer(&tee);
  kernel.run(scheduler);
  kernel.set_observer(attached);
  return std::move(recorder.jobs);
}

}  // namespace gridsched::test
