// Named-metric registry: counters, gauges and histograms registered by
// stable string names, snapshotted to deterministic JSON. The registry is
// the sink side of the observability layer — KernelMetricsObserver is
// its one writer; `snapshot_json()` is the single export surface. Metric
// handles returned by the registry are stable for the registry's lifetime
// (node-based storage), so hot paths resolve a name once and then touch
// only the handle.
//
// Determinism contract: a snapshot's bytes depend only on the sequence of
// metric operations (names iterate in sorted order, numbers render via
// util::json::number's shortest-exact form). Wall-clock values may be
// *stored* in gauges, but any consumer that promises byte-stable output
// must not record them — see ROADMAP "Observability" invariants.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace gridsched::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-range distribution: bucketed counts (util::Histogram) plus exact
/// streaming moments (util::RunningStats) so the snapshot reports both
/// shape and mean/min/max/stddev without retaining samples.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets)
      : histogram_(lo, hi, buckets), lo_(lo), hi_(hi) {}

  void observe(double x) noexcept {
    histogram_.add(x);
    stats_.add(x);
  }

  [[nodiscard]] const util::Histogram& histogram() const noexcept {
    return histogram_;
  }
  [[nodiscard]] const util::RunningStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }

 private:
  util::Histogram histogram_;
  util::RunningStats stats_;
  double lo_;
  double hi_;
};

/// Registry of named metrics. Names are free-form but the convention is
/// dotted paths ("kernel.dispatches", "ga.generation_wall_ms"). A name
/// identifies exactly one metric kind: re-registering it as a different
/// kind (or a histogram with different bounds) throws std::logic_error —
/// silent aliasing would corrupt the snapshot.
class MetricRegistry {
 public:
  /// Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Deterministic JSON snapshot: one object with "counters", "gauges"
  /// and "histograms" members, metric names in lexicographic order,
  /// numbers in util::json::number form. Byte-identical for identical
  /// operation sequences.
  [[nodiscard]] std::string snapshot_json() const;

  /// snapshot_json() + trailing newline written to `path`; throws
  /// std::runtime_error if the file cannot be written.
  void write_snapshot(const std::string& path) const;

 private:
  void check_unclaimed(const std::string& name, const char* wanted) const;

  // std::map: sorted iteration gives the snapshot its stable order, and
  // node-based storage keeps handed-out references valid.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace gridsched::obs
