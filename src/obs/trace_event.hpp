// Chrome trace_event recorder: a sim::KernelObserver that turns one
// kernel run into a `chrome://tracing` / Perfetto-loadable JSON timeline.
// Track layout: pid 1 ("grid sites") carries one thread per site; every
// attempt is a complete span ("X") on its site's track — successful,
// failed (with a failure instant at the detection time) or interrupted
// (closed by a churn revocation). Site outages render as spans on the
// same track, batch cycles as instants on pid 2 ("scheduler").
//
// Determinism contract: the trace records *simulated* time only
// (microsecond ts = sim seconds x 1e6, rendered via util::json::number),
// never host wall clock — a fixed (scenario, policy, seed) must produce
// a byte-identical trace across runs and thread counts. Scheduler wall
// time is deliberately dropped on the floor here; it belongs in the
// campaign profile sidecar.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace gridsched::obs {

struct TimeSeries;  // obs/timeseries.hpp

/// Records one SimKernel run (re-attaching resets on on_run_start).
class SimTraceRecorder final : public sim::KernelObserver {
 public:
  void on_run_start(const sim::SimKernel& kernel) override;
  void on_event(const sim::SimKernel& kernel,
                const sim::Event& event) override;
  void on_dispatch(const sim::SimKernel& kernel, sim::JobId job,
                   sim::SiteId site,
                   const sim::NodeAvailability::Window& window, double exec,
                   unsigned serial) override;
  void on_job_complete(const sim::SimKernel& kernel, sim::JobId job,
                       sim::SiteId site, sim::Time time) override;
  void on_attempt_failure(const sim::SimKernel& kernel, sim::JobId job,
                          sim::SiteId site, sim::Time time) override;
  void on_revoke(const sim::SimKernel& kernel, sim::JobId job,
                 sim::SiteId site, sim::Time time) override;
  void on_cycle(const sim::SimKernel& kernel, sim::Time now,
                std::size_t batch_jobs, std::size_t assigned,
                double scheduler_wall_seconds) override;
  void on_run_end(const sim::SimKernel& kernel) override;

  /// Number of trace events recorded so far.
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Append Chrome "C" counter events from a TimeSeriesProbe's series so
  /// Perfetto draws load curves ("kernel load", "sites up", "outcomes")
  /// under the span tracks. The series carries simulated time only, so
  /// the merged trace stays byte-deterministic. Call once, after the run
  /// and before render().
  void merge_counters(const TimeSeries& series);

  /// The complete trace document:
  /// {"displayTimeUnit": "ms", "traceEvents": [...]}.
  [[nodiscard]] std::string render() const;

 private:
  struct OpenAttempt {
    sim::Time start = 0.0;
    sim::SiteId site = sim::kInvalidSite;
    unsigned serial = 0;
    bool open = false;
  };

  void emit_span(const char* name, const char* category, sim::SiteId site,
                 sim::Time start, sim::Time end, sim::JobId job,
                 unsigned serial);
  void emit_instant(const std::string& name, const char* category, int pid,
                    int tid, sim::Time time, const std::string& args);
  /// Per-job entry, growing on demand: the kernel admits jobs lazily, so
  /// the job-id space is not known at on_run_start.
  OpenAttempt& open_slot(sim::JobId job) {
    if (job >= open_.size()) open_.resize(static_cast<std::size_t>(job) + 1);
    return open_[job];
  }

  std::vector<std::string> events_;  ///< rendered JSON objects, in order
  std::vector<OpenAttempt> open_;    ///< per job, current open attempt
  std::vector<sim::Time> down_since_;  ///< per site, <0 = up
};

}  // namespace gridsched::obs
