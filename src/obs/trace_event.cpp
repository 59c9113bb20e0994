#include "obs/trace_event.hpp"


#include "obs/timeseries.hpp"
#include "sim/kernel.hpp"
#include "util/json.hpp"

namespace gridsched::obs {

namespace {

using util::json::number;
using util::json::quote;

constexpr int kSitesPid = 1;
constexpr int kSchedulerPid = 2;

/// Simulated seconds -> trace microseconds, rendered shortest-exact.
std::string ts(sim::Time seconds) { return number(seconds * 1e6); }

std::string metadata(const char* name, int pid, int tid,
                     const std::string& value) {
  std::string out = "{\"ph\": \"M\", \"name\": \"";
  out += name;
  out += "\", \"pid\": " + std::to_string(pid);
  if (tid >= 0) out += ", \"tid\": " + std::to_string(tid);
  out += ", \"args\": {\"name\": " + quote(value) + "}}";
  return out;
}

}  // namespace

void SimTraceRecorder::on_run_start(const sim::SimKernel& kernel) {
  events_.clear();
  // Jobs are admitted lazily, so open_slot() grows this on demand as
  // jobs dispatch.
  open_.clear();
  down_since_.assign(kernel.sites().size(), -1.0);

  events_.push_back(metadata("process_name", kSitesPid, -1, "grid sites"));
  events_.push_back(
      metadata("process_name", kSchedulerPid, -1, "scheduler"));
  events_.push_back(metadata("thread_name", kSchedulerPid, 1, "batch cycles"));
  for (std::size_t s = 0; s < kernel.sites().size(); ++s) {
    const sim::SiteConfig& config = kernel.sites()[s].config();
    std::string label = "site " + std::to_string(s) + " (" +
                        std::to_string(config.nodes) + " nodes)";
    events_.push_back(metadata("thread_name", kSitesPid,
                               static_cast<int>(s) + 1, label));
  }
}

void SimTraceRecorder::emit_span(const char* name, const char* category,
                                 sim::SiteId site, sim::Time start,
                                 sim::Time end, sim::JobId job,
                                 unsigned serial) {
  std::string out = "{\"ph\": \"X\", \"name\": " + quote(name);
  out += ", \"cat\": \"";
  out += category;
  out += "\", \"pid\": " + std::to_string(kSitesPid);
  out += ", \"tid\": " + std::to_string(static_cast<int>(site) + 1);
  out += ", \"ts\": " + ts(start);
  out += ", \"dur\": " + ts(end - start);
  if (job != sim::kInvalidJob) {
    out += ", \"args\": {\"job\": " + std::to_string(job) +
           ", \"attempt\": " + std::to_string(serial) + "}";
  }
  out += "}";
  events_.push_back(std::move(out));
}

void SimTraceRecorder::emit_instant(const std::string& name,
                                    const char* category, int pid, int tid,
                                    sim::Time time, const std::string& args) {
  std::string out = "{\"ph\": \"i\", \"s\": \"t\", \"name\": " + quote(name);
  out += ", \"cat\": \"";
  out += category;
  out += "\", \"pid\": " + std::to_string(pid);
  out += ", \"tid\": " + std::to_string(tid);
  out += ", \"ts\": " + ts(time);
  if (!args.empty()) out += ", \"args\": " + args;
  out += "}";
  events_.push_back(std::move(out));
}

void SimTraceRecorder::on_event(const sim::SimKernel& kernel,
                                const sim::Event& event) {
  (void)kernel;
  // Only churn transitions are recorded from the raw stream; everything
  // else surfaces through the structured callbacks below.
  if (event.kind == sim::EventKind::kSiteDown) {
    const auto site = static_cast<std::size_t>(event.site);
    if (site < down_since_.size() && down_since_[site] < 0.0) {
      down_since_[site] = event.time;
    }
    emit_instant("site down", "churn", kSitesPid,
                 static_cast<int>(event.site) + 1, event.time, "");
  } else if (event.kind == sim::EventKind::kSiteUp) {
    const auto site = static_cast<std::size_t>(event.site);
    if (site < down_since_.size() && down_since_[site] >= 0.0) {
      emit_span("outage", "outage", event.site, down_since_[site], event.time,
                sim::kInvalidJob, 0);
      down_since_[site] = -1.0;
    }
    emit_instant("site up", "churn", kSitesPid,
                 static_cast<int>(event.site) + 1, event.time, "");
  }
}

void SimTraceRecorder::on_dispatch(const sim::SimKernel& kernel,
                                   sim::JobId job, sim::SiteId site,
                                   const sim::NodeAvailability::Window& window,
                                   double exec, unsigned serial) {
  (void)kernel;
  (void)exec;
  open_slot(job) = {window.start, site, serial, true};
}

void SimTraceRecorder::on_job_complete(const sim::SimKernel& kernel,
                                       sim::JobId job, sim::SiteId site,
                                       sim::Time time) {
  (void)kernel;
  OpenAttempt& attempt = open_slot(job);
  if (!attempt.open) return;
  const std::string name = "job " + std::to_string(job);
  emit_span(name.c_str(), "attempt", site, attempt.start, time, job,
            attempt.serial);
  attempt.open = false;
}

void SimTraceRecorder::on_attempt_failure(const sim::SimKernel& kernel,
                                          sim::JobId job, sim::SiteId site,
                                          sim::Time time) {
  (void)kernel;
  OpenAttempt& attempt = open_slot(job);
  if (!attempt.open) return;
  const std::string name = "job " + std::to_string(job) + " (failed)";
  emit_span(name.c_str(), "attempt-failed", site, attempt.start, time, job,
            attempt.serial);
  emit_instant("security failure", "failure", kSitesPid,
               static_cast<int>(site) + 1, time,
               "{\"job\": " + std::to_string(job) + "}");
  attempt.open = false;  // the revocation that follows is already drawn
}

void SimTraceRecorder::on_revoke(const sim::SimKernel& kernel, sim::JobId job,
                                 sim::SiteId site, sim::Time time) {
  (void)kernel;
  OpenAttempt& attempt = open_slot(job);
  // Failure revocations arrive pre-closed by on_attempt_failure; an
  // attempt still open here was interrupted by a site outage.
  if (!attempt.open) return;
  const std::string name = "job " + std::to_string(job) + " (interrupted)";
  emit_span(name.c_str(), "attempt-interrupted", site, attempt.start, time,
            job, attempt.serial);
  attempt.open = false;
}

void SimTraceRecorder::on_cycle(const sim::SimKernel& kernel, sim::Time now,
                                std::size_t batch_jobs, std::size_t assigned,
                                double scheduler_wall_seconds) {
  (void)kernel;
  // Wall time is intentionally NOT recorded: the trace must be
  // byte-identical across runs and thread counts.
  (void)scheduler_wall_seconds;
  emit_instant("batch cycle", "scheduler", kSchedulerPid, 1, now,
               "{\"batch\": " + std::to_string(batch_jobs) +
                   ", \"assigned\": " + std::to_string(assigned) + "}");
}

void SimTraceRecorder::on_run_end(const sim::SimKernel& kernel) {
  // Close outages still open at the end of the run so they render as
  // spans instead of disappearing.
  for (std::size_t s = 0; s < down_since_.size(); ++s) {
    if (down_since_[s] >= 0.0 && kernel.makespan() > down_since_[s]) {
      emit_span("outage", "outage", static_cast<sim::SiteId>(s),
                down_since_[s], kernel.makespan(), sim::kInvalidJob, 0);
      down_since_[s] = -1.0;
    }
  }
}

void SimTraceRecorder::merge_counters(const TimeSeries& series) {
  // Trace-event consumers do not require ts order, so counters are
  // appended after the spans; the emission order (and therefore the
  // rendered bytes) depends only on the series.
  const auto counter = [&](const char* name, const sim::Time time,
                           const std::string& args) {
    std::string out = "{\"ph\": \"C\", \"name\": " + quote(name);
    out += ", \"pid\": " + std::to_string(kSchedulerPid);
    out += ", \"ts\": " + ts(time);
    out += ", \"args\": {" + args + "}}";
    events_.push_back(std::move(out));
  };
  for (const TimeSeriesSample& sample : series.samples) {
    counter("kernel load", sample.t,
            "\"ready\": " + std::to_string(sample.ready) +
                ", \"in_flight\": " + std::to_string(sample.in_flight));
    counter("sites up", sample.t,
            "\"up\": " + std::to_string(sample.sites_up));
    counter("outcomes", sample.t,
            "\"completed\": " + std::to_string(sample.completed) +
                ", \"failures\": " + std::to_string(sample.failures) +
                ", \"interruptions\": " +
                std::to_string(sample.interruptions));
  }
}

std::string SimTraceRecorder::render() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "  " + events_[i];
  }
  out += events_.empty() ? "]}" : "\n]}";
  return out;
}

}  // namespace gridsched::obs
