#include "obs/kernel_metrics.hpp"

#include <array>

#include "sim/kernel.hpp"

namespace gridsched::obs {

namespace {

/// A `kernel.*` counter and the kernel tally it reports.
struct CounterSource {
  const char* name;
  std::size_t (*read)(const sim::SimKernel& kernel);
};

template <sim::EventKind kKind>
std::size_t popped(const sim::SimKernel& kernel) {
  return kernel.counters().events_of(kKind);
}

constexpr std::array<CounterSource, 10> kCounterSources = {{
    {"kernel.events.arrival", popped<sim::EventKind::kJobArrival>},
    {"kernel.events.batch_cycle", popped<sim::EventKind::kBatchCycle>},
    {"kernel.events.job_end", popped<sim::EventKind::kJobEnd>},
    {"kernel.events.site_down", popped<sim::EventKind::kSiteDown>},
    {"kernel.events.site_up", popped<sim::EventKind::kSiteUp>},
    // Every dispatch is one attempt of a job that has since retired.
    {"kernel.dispatches",
     [](const sim::SimKernel& kernel) {
       return kernel.retirement().total_attempts();
     }},
    {"kernel.completions",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().completed_jobs;
     }},
    {"kernel.failures",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().failure_events;
     }},
    // Failure releases and site-down interruptions share revoke_attempt.
    {"kernel.revocations",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().failure_events +
              kernel.counters().interrupted_attempts;
     }},
    // Scheduler calls: one per non-empty batch cycle.
    {"kernel.cycles",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().batch_invocations;
     }},
}};

}  // namespace

KernelMetricsObserver::KernelMetricsObserver(MetricRegistry& registry)
    : registry_(registry),
      batch_jobs_(registry.histogram("kernel.batch_jobs", 0.0, 256.0, 32)),
      batch_assigned_(
          registry.histogram("kernel.batch_assigned", 0.0, 256.0, 32)),
      attempt_exec_seconds_(
          registry.histogram("kernel.attempt_exec_seconds", 0.0, 50000.0, 50)),
      job_response_seconds_(registry.histogram("kernel.job_response_seconds",
                                               0.0, 100000.0, 50)),
      makespan_(registry.gauge("kernel.makespan")),
      scheduler_seconds_(registry.gauge("kernel.scheduler_seconds")) {
  for (const CounterSource& source : kCounterSources) {
    registry.counter(source.name);
  }
}

void KernelMetricsObserver::on_dispatch(
    const sim::SimKernel& kernel, sim::JobId job, sim::SiteId site,
    const sim::NodeAvailability::Window& window, double exec,
    unsigned serial) {
  (void)kernel;
  (void)job;
  (void)site;
  (void)window;
  (void)serial;
  attempt_exec_seconds_.observe(exec);
}

void KernelMetricsObserver::on_job_complete(const sim::SimKernel& kernel,
                                            sim::JobId job, sim::SiteId site,
                                            sim::Time time) {
  (void)site;
  job_response_seconds_.observe(time - kernel.job(job).arrival);
}

void KernelMetricsObserver::on_cycle(const sim::SimKernel& kernel,
                                     sim::Time now, std::size_t batch_jobs,
                                     std::size_t assigned,
                                     double scheduler_wall_seconds) {
  (void)kernel;
  (void)now;
  (void)scheduler_wall_seconds;  // wall time goes to the end-of-run gauge
  batch_jobs_.observe(static_cast<double>(batch_jobs));
  batch_assigned_.observe(static_cast<double>(assigned));
}

void KernelMetricsObserver::on_run_end(const sim::SimKernel& kernel) {
  for (const CounterSource& source : kCounterSources) {
    registry_.counter(source.name).inc(source.read(kernel));
  }
  makespan_.set(kernel.makespan());
  // The one wall-clock (non-deterministic) value in the registry; see the
  // README determinism note.
  scheduler_seconds_.set(kernel.counters().scheduler_seconds);
}

}  // namespace gridsched::obs
