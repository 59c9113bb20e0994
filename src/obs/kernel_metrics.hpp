// KernelObserver that collects the kernel metric snapshot: per-event-kind
// counters, dispatch/completion/failure/revocation counts, batch-size and
// latency histograms, end-of-run gauges. The counters are read from the
// kernel's own tallies (EngineCounters and the retirement accumulator)
// when the run ends; only the four histograms observe per callback.
// Metric names are part of the public observability surface — see the
// README "Kernel metrics" table before renaming any.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/observer.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace gridsched::obs {

/// Collects the fixed set of kernel metrics: 10 counters, 2 gauges and 4
/// histograms. Every recorded value except the `kernel.scheduler_seconds`
/// gauge is a pure function of the simulation — snapshots of
/// deterministic runs are byte-stable apart from that one gauge.
class KernelMetricsObserver final : public sim::KernelObserver {
 public:
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

  /// Deterministic JSON snapshot (no trailing newline): one object with
  /// "counters", "gauges" and "histograms" members, metric names in
  /// lexicographic order, numbers in util::json::number form. Lists every
  /// metric even before a run ends.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  /// Fixed-range distribution: bucketed counts plus exact streaming
  /// moments, so the snapshot reports both shape and mean/min/max/stddev
  /// without retaining samples.
  struct Distribution {
    util::Histogram histogram;
    util::RunningStats stats;

    void observe(double x) noexcept {
      histogram.add(x);
      stats.add(x);
    }
  };

  static constexpr std::size_t kCounters = 10;

  std::array<std::uint64_t, kCounters> counters_{};  ///< sorted by name
  double makespan_ = 0.0;
  double scheduler_seconds_ = 0.0;
  Distribution attempt_exec_seconds_{util::Histogram(0.0, 50000.0, 50), {}};
  Distribution batch_assigned_{util::Histogram(0.0, 256.0, 32), {}};
  Distribution batch_jobs_{util::Histogram(0.0, 256.0, 32), {}};
  Distribution job_response_seconds_{util::Histogram(0.0, 100000.0, 50),
                                     {}};
};

}  // namespace gridsched::obs
