// Deterministic sim-time telemetry series. TimeSeriesProbe is a passive
// sim::KernelObserver that samples the kernel's load state at a fixed
// simulated-time cadence: ready-queue depth, in-flight attempts, up-site
// count, per-site busy fraction and the cumulative outcome counters
// (completions / failure detections / churn interruptions). Because the
// sample clock is *simulated* time and the probe reads only kernel state
// the event loop already exposes, the series is a pure function of
// (scenario, policy, seed) — byte-identical across runs, machines and
// thread counts — and attaching the probe leaves the run bit-identical
// (PR 6 observer contract).
//
// Sampling semantics: sample k lands at t_k = k * interval (an integer
// multiple, never an accumulated float) and captures the state after all
// events with time < t_k were processed; events at exactly t_k are *not*
// yet reflected (half-open [t_{k-1}, t_k) windows, matching the kernel's
// deterministic FIFO tie-break). One terminal sample at the makespan
// closes the series with the final state.
//
// Exporters: compact column-oriented JSON, CSV, and Chrome trace "C"
// counter events (SimTraceRecorder::merge_counters) so Perfetto renders
// load curves under the existing span tracks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace gridsched::obs {

/// One sample row. Counts are instantaneous except the cumulative
/// outcome counters (completed / failures / interruptions).
struct TimeSeriesSample {
  sim::Time t = 0.0;
  std::size_t ready = 0;      ///< jobs in the kernel's pending queue
  std::size_t in_flight = 0;  ///< active attempts (committed reservations)
  std::size_t sites_up = 0;   ///< usable sites (churn mask)
  std::size_t completed = 0;  ///< cumulative completions
  std::size_t failures = 0;   ///< cumulative failure detections
  std::size_t interruptions = 0;  ///< cumulative churn interruptions
  /// Per-site busy fraction at t: nodes claimed by active attempts whose
  /// reservation window has started, over the site's node count.
  std::vector<double> busy;
};

struct TimeSeries {
  sim::Time interval = 0.0;  ///< sample cadence (simulated seconds)
  std::size_t n_sites = 0;   ///< width of each sample's busy vector
  std::vector<TimeSeriesSample> samples;
};

/// Scalar column names in artifact order ("t", "ready", ...); the busy
/// columns follow as busy_0..busy_{n_sites-1}. Shared by the JSON/CSV
/// exporters, the campaign reduction and the README table.
std::vector<std::string> timeseries_columns(std::size_t n_sites);

/// Samples one SimKernel run (re-attaching resets on on_run_start).
class TimeSeriesProbe final : public sim::KernelObserver {
 public:
  /// `interval` is the sample cadence in simulated seconds; throws
  /// std::invalid_argument unless it is finite and > 0.
  explicit TimeSeriesProbe(sim::Time interval);

  void on_run_start(const sim::SimKernel& kernel) override;
  void on_event(const sim::SimKernel& kernel,
                const sim::Event& event) override;
  void on_run_end(const sim::SimKernel& kernel) override;

  [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }

 private:
  void sample_at(const sim::SimKernel& kernel, sim::Time t);

  sim::Time interval_;
  /// Next sample boundary index; boundary time is index * interval so a
  /// long event gap flushes every boundary it skipped (no float drift).
  std::uint64_t next_index_ = 0;
  TimeSeries series_;
};

/// Compact column-oriented JSON: {"schema": ..., "interval", "sites",
/// "columns", "samples": [[row], ...]} with doubles in shortest-exact
/// form (trailing newline). Byte-stable for a given series.
std::string render_timeseries_json(const TimeSeries& series);

/// CSV with a header row matching timeseries_columns(). Byte-stable.
std::string render_timeseries_csv(const TimeSeries& series);

}  // namespace gridsched::obs
