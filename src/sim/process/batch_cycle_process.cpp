#include "sim/process/batch_cycle_process.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "sim/kernel.hpp"
#include "sim/process/security_failure_process.hpp"

namespace gridsched::sim {

void BatchCycleProcess::handle(SimKernel& kernel, BatchScheduler& scheduler,
                               const Event& event) {
  kernel.cycle_fired();
  run_cycle(kernel, scheduler, event.time);
  if (kernel.work_remains()) kernel.request_cycle(event.time);
}

void BatchCycleProcess::run_cycle(SimKernel& kernel, BatchScheduler& scheduler,
                                  Time now) {
  if (kernel.pending().empty()) return;

  // Refresh the persistent context snapshot in place. Site configs, the
  // execution model and lambda never change mid-run, so they are captured
  // once; the per-cycle fields (availability profiles, site mask, batch)
  // copy-assign into buffers that already hold their high-water capacity.
  const std::vector<GridSite>& sites = kernel.sites();
  SchedulerContext& context = context_;
  context.now = now;
  if (!context_static_ready_) {
    context.exec = kernel.exec_model();
    context.lambda = kernel.config().lambda;
    context.sites.reserve(sites.size());
    for (const GridSite& site : sites) context.sites.push_back(site.config());
    context.avail.resize(sites.size(), NodeAvailability(1, 0.0));
    context_static_ready_ = true;
  }
  context.site_up = kernel.site_mask();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    context.avail[s] = sites[s].availability();
  }
  context.jobs.clear();
  context.jobs.reserve(kernel.pending().size());
  for (const JobId id : kernel.pending()) {
    const Job& job = kernel.job(id);
    context.jobs.push_back(
        {job.id, job.work, job.nodes, job.demand, job.arrival,
         job.secure_only});
  }

  ++kernel.counters().batch_invocations;
  // Scheduler wall seconds feed the observer hook, the profile sidecar and
  // the kernel.scheduler_seconds gauge only — never a byte-stable artifact.
  // NOLINTNEXTLINE(GS-R05): wall-clock is observability-only here
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler.schedule_into(context, assignments_);
  const double wall =
      // NOLINTNEXTLINE(GS-R05): wall-clock is observability-only here
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  kernel.counters().scheduler_seconds += wall;
  const std::vector<Assignment>& assignments = assignments_;
  kernel.notify_cycle(now, context.jobs.size(), assignments.size(), wall);

  // Validate and apply in the order the scheduler chose.
  assigned_.assign(context.jobs.size(), 0);
  for (const Assignment& assignment : assignments) {
    if (assignment.job_index >= context.jobs.size()) {
      throw std::logic_error("scheduler returned an out-of-range job index");
    }
    if (assignment.site >= sites.size()) {
      throw std::logic_error("scheduler returned an invalid site id");
    }
    if (assigned_[assignment.job_index]) {
      throw std::logic_error("scheduler assigned the same job twice");
    }
    assigned_[assignment.job_index] = 1;
    const JobId job_id = context.jobs[assignment.job_index].id;
    const Job& job = kernel.job(job_id);
    const GridSite& site = sites[assignment.site];
    if (!kernel.site_usable(assignment.site)) {
      throw std::logic_error(
          "scheduler placed a job on a site that is currently down");
    }
    if (!site.fits(job.nodes)) {
      throw std::logic_error(
          "scheduler placed a job on a site it does not fit");
    }
    if (job.secure_only && !security::is_safe(job.demand, site.security())) {
      throw std::logic_error(
          "scheduler violated the fail-stop rule (secure_only job on "
          "risky site)");
    }
    SecurityFailureProcess::dispatch(kernel, job_id, assignment.site, now);
  }

  // Compact dispatched jobs out of the pending queue in place, preserving
  // order (nothing was appended during the cycle, so pending index ==
  // batch index).
  if (!assignments.empty()) {
    std::vector<JobId>& pending = kernel.pending();
    std::size_t write = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!assigned_[i]) pending[write++] = pending[i];
    }
    pending.resize(write);
    idle_cycles_ = 0;
  } else {
    if (++idle_cycles_ > kernel.config().max_idle_cycles) {
      throw std::runtime_error(
          "SimKernel: scheduler starved " +
          std::to_string(kernel.pending().size()) +
          " pending job(s) for too many cycles");
    }
  }
}

}  // namespace gridsched::sim
