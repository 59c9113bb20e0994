#include "obs/timeseries.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/kernel.hpp"
#include "util/json.hpp"

namespace gridsched::obs {

namespace {

using util::json::number;

void append_cell(std::string& out, const std::string& cell) {
  out += ',';
  out += cell;
}

std::string scalar_cells(const TimeSeriesSample& sample) {
  std::string out = number(sample.t);
  append_cell(out, std::to_string(sample.ready));
  append_cell(out, std::to_string(sample.in_flight));
  append_cell(out, std::to_string(sample.sites_up));
  append_cell(out, std::to_string(sample.completed));
  append_cell(out, std::to_string(sample.failures));
  append_cell(out, std::to_string(sample.interruptions));
  return out;
}

}  // namespace

std::vector<std::string> timeseries_columns(std::size_t n_sites) {
  std::vector<std::string> columns = {"t",         "ready",
                                      "in_flight", "sites_up",
                                      "completed", "failures",
                                      "interruptions"};
  for (std::size_t s = 0; s < n_sites; ++s) {
    columns.push_back("busy_" + std::to_string(s));
  }
  return columns;
}

TimeSeriesProbe::TimeSeriesProbe(sim::Time interval) : interval_(interval) {
  if (!std::isfinite(interval) || interval <= 0.0) {
    throw std::invalid_argument(
        "TimeSeriesProbe: sample interval must be finite and > 0");
  }
}

void TimeSeriesProbe::on_run_start(const sim::SimKernel& kernel) {
  series_ = TimeSeries{};
  series_.interval = interval_;
  series_.n_sites = kernel.sites().size();
  next_index_ = 0;
}

void TimeSeriesProbe::sample_at(const sim::SimKernel& kernel, sim::Time t) {
  TimeSeriesSample sample;
  sample.t = t;
  sample.ready = kernel.pending().size();
  sample.completed = kernel.counters().completed_jobs;
  sample.failures = kernel.counters().failure_events;
  sample.interruptions = kernel.counters().interrupted_attempts;
  for (std::size_t s = 0; s < kernel.sites().size(); ++s) {
    if (kernel.site_usable(s)) ++sample.sites_up;
  }
  // Busy fraction from the kernel's per-site live-attempt index: an
  // active attempt claims its job's nodes on its site once the reservation
  // window has started (reservations are disjoint per node, so the sum
  // never exceeds the site's capacity). Node counts are small integers
  // held as doubles, so the sum is exact in any index order. Sampling
  // allocates nothing beyond the sample row itself.
  sample.in_flight = kernel.live_attempt_count();
  sample.busy.resize(kernel.sites().size(), 0.0);
  for (std::size_t s = 0; s < kernel.sites().size(); ++s) {
    double busy_nodes = 0.0;
    for (const std::uint32_t slot :
         kernel.live_attempts(static_cast<sim::SiteId>(s))) {
      if (kernel.attempts()[slot].window.start > t) continue;  // reserved
      busy_nodes += static_cast<double>(kernel.jobs()[slot].nodes);
    }
    const unsigned nodes = kernel.sites()[s].config().nodes;
    if (nodes > 0) sample.busy[s] = busy_nodes / nodes;
  }
  series_.samples.push_back(std::move(sample));
}

void TimeSeriesProbe::on_event(const sim::SimKernel& kernel,
                               const sim::Event& event) {
  // on_event fires after the clock advanced to event.time but before the
  // event is routed, so every boundary at or before event.time sees the
  // state with all strictly-earlier events applied.
  while (static_cast<double>(next_index_) * interval_ <= event.time) {
    sample_at(kernel, static_cast<double>(next_index_) * interval_);
    ++next_index_;
  }
}

void TimeSeriesProbe::on_run_end(const sim::SimKernel& kernel) {
  // Terminal sample: the final state at the makespan (all boundaries up
  // to the last event were already flushed from on_event).
  sample_at(kernel, kernel.makespan());
}

std::string render_timeseries_json(const TimeSeries& series) {
  std::string out = "{\"schema\": \"gridsched-timeseries-v1\"";
  out += ", \"interval\": " + number(series.interval);
  out += ", \"sites\": " + std::to_string(series.n_sites);
  out += ", \"columns\": [";
  const std::vector<std::string> columns =
      timeseries_columns(series.n_sites);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ", ";
    out += util::json::quote(columns[c]);
  }
  out += "], \"samples\": [";
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const TimeSeriesSample& sample = series.samples[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  [" + scalar_cells(sample);
    for (const double fraction : sample.busy) {
      append_cell(out, number(fraction));
    }
    out += "]";
  }
  out += series.samples.empty() ? "]}\n" : "\n]}\n";
  return out;
}

std::string render_timeseries_csv(const TimeSeries& series) {
  std::string out;
  const std::vector<std::string> columns =
      timeseries_columns(series.n_sites);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ",";
    out += columns[c];
  }
  out += "\n";
  for (const TimeSeriesSample& sample : series.samples) {
    out += scalar_cells(sample);
    for (const double fraction : sample.busy) {
      append_cell(out, number(fraction));
    }
    out += "\n";
  }
  return out;
}

}  // namespace gridsched::obs
