#include "obs/kernel_metrics.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "sim/kernel.hpp"
#include "util/json.hpp"

namespace gridsched::obs {

namespace {

/// A `kernel.*` counter and the kernel tally it reports.
struct CounterSource {
  std::string_view name;
  std::size_t (*read)(const sim::SimKernel& kernel);
};

template <sim::EventKind kKind>
std::size_t popped(const sim::SimKernel& kernel) {
  return kernel.counters().events_of(kKind);
}

// Sorted by name: the snapshot lists the counters in table order.
constexpr std::array<CounterSource, 10> kCounterSources = {{
    {"kernel.completions",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().completed_jobs;
     }},
    // Scheduler calls: one per non-empty batch cycle.
    {"kernel.cycles",
     [](const sim::SimKernel& kernel) {
       return kernel.counters().batch_invocations;
     }},
    // Every dispatch is one attempt of a job that has since retired.
    {"kernel.dispatches",
     [](const sim::SimKernel& kernel) {
       return kernel.retirement().total_attempts();
     }},
    {"kernel.events.arrival", popped<sim::EventKind::kJobArrival>},
    {"kernel.events.batch_cycle", popped<sim::EventKind::kBatchCycle>},
    {"kernel.events.job_end", popped<sim::EventKind::kJobEnd>},
    {"kernel.events.site_down", popped<sim::EventKind::kSiteDown>},
    {"kernel.events.site_up", popped<sim::EventKind::kSiteUp>},
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
}};
static_assert(std::ranges::is_sorted(kCounterSources, {},
                                     &CounterSource::name));

}  // namespace

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
  static_assert(kCounterSources.size() == kCounters);
  for (std::size_t i = 0; i < kCounters; ++i) {
    counters_[i] += kCounterSources[i].read(kernel);
  }
  makespan_ = kernel.makespan();
  // The one wall-clock (non-deterministic) value in the snapshot; see the
  // README determinism note.
  scheduler_seconds_ = kernel.counters().scheduler_seconds;
}

std::string KernelMetricsObserver::snapshot_json() const {
  using util::json::number;
  using util::json::quote;

  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < kCounters; ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quote(kCounterSources[i].name) + ": " +
           std::to_string(counters_[i]);
  }
  out += "\n  },\n";

  out += "  \"gauges\": {\n";
  out += "    \"kernel.makespan\": " + number(makespan_) + ",\n";
  out += "    \"kernel.scheduler_seconds\": " + number(scheduler_seconds_);
  out += "\n  },\n";

  out += "  \"histograms\": {";
  const std::pair<std::string_view, const Distribution*> histograms[] = {
      {"kernel.attempt_exec_seconds", &attempt_exec_seconds_},
      {"kernel.batch_assigned", &batch_assigned_},
      {"kernel.batch_jobs", &batch_jobs_},
      {"kernel.job_response_seconds", &job_response_seconds_},
  };
  bool first = true;
  for (const auto& [name, distribution] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    const util::Histogram& h = distribution->histogram;
    const util::RunningStats& s = distribution->stats;
    out += "    " + quote(name) + ": {";
    out += "\"lo\": " + number(h.lo());
    out += ", \"hi\": " + number(h.hi());
    out += ", \"count\": " + std::to_string(h.total());
    out += ", \"underflow\": " + std::to_string(h.underflow());
    out += ", \"overflow\": " + std::to_string(h.overflow());
    if (s.count() > 0) {
      out += ", \"mean\": " + number(s.mean());
      out += ", \"min\": " + number(s.min());
      out += ", \"max\": " + number(s.max());
      out += ", \"stddev\": " + number(s.stddev());
    }
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      if (b != 0) out += ", ";
      out += std::to_string(h.count(b));
    }
    out += "]}";
  }
  out += "\n  }\n}";
  return out;
}

}  // namespace gridsched::obs
