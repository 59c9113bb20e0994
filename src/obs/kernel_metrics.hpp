// KernelObserver that feeds a MetricRegistry: per-event-kind counters,
// dispatch/completion/failure/revocation counts, batch-size and latency
// histograms, end-of-run gauges. The counters are read from the kernel's
// own tallies (EngineCounters and the retirement accumulator) when the
// run ends; only the four histograms observe per callback. Metric names
// are part of the public observability surface — see the README
// "Observability" table before renaming any.
#pragma once

#include "obs/metric_registry.hpp"
#include "sim/observer.hpp"

namespace gridsched::obs {

/// Collects kernel metrics into a caller-owned registry. Every name is
/// registered at construction, so a snapshot lists all of them even
/// before a run ends. Every recorded value except the
/// `kernel.scheduler_seconds` gauge is a pure function of the simulation
/// — snapshots of deterministic runs are byte-stable apart from that one
/// gauge.
class KernelMetricsObserver final : public sim::KernelObserver {
 public:
  explicit KernelMetricsObserver(MetricRegistry& registry);

  void on_dispatch(const sim::SimKernel& kernel, sim::JobId job,
                   sim::SiteId site,
                   const sim::NodeAvailability::Window& window, double exec,
                   unsigned serial) override;
  void on_job_complete(const sim::SimKernel& kernel, sim::JobId job,
                       sim::SiteId site, sim::Time time) override;
  void on_cycle(const sim::SimKernel& kernel, sim::Time now,
                std::size_t batch_jobs, std::size_t assigned,
                double scheduler_wall_seconds) override;
  void on_run_end(const sim::SimKernel& kernel) override;

 private:
  MetricRegistry& registry_;
  HistogramMetric& batch_jobs_;
  HistogramMetric& batch_assigned_;
  HistogramMetric& attempt_exec_seconds_;
  HistogramMetric& job_response_seconds_;
  Gauge& makespan_;
  Gauge& scheduler_seconds_;
};

}  // namespace gridsched::obs
