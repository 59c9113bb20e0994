#include "exp/campaign/campaign_aggregator.hpp"

#include <array>
#include <stdexcept>

#include "obs/timeseries.hpp"

namespace gridsched::exp::campaign {

namespace {

constexpr std::array<MetricDef, 17> kMetricDefs = {{
    {"makespan", true,
     [](const metrics::RunMetrics& run) { return run.makespan; }},
    {"avg_response", true,
     [](const metrics::RunMetrics& run) { return run.avg_response; }},
    {"slowdown", true,
     [](const metrics::RunMetrics& run) { return run.slowdown_ratio; }},
    {"n_risk", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.n_risk);
     }},
    {"n_fail", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.n_fail);
     }},
    {"avg_utilization", true,
     [](const metrics::RunMetrics& run) { return run.avg_utilization; }},
    // Engine counters (PR 5): pure functions of (scenario, policy, seed),
    // so all deterministic and JSON-safe.
    {"failure_events", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.failure_events);
     }},
    {"risky_attempts", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.risky_attempts);
     }},
    {"released_nodes", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.released_nodes);
     }},
    {"unreleased_nodes", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.unreleased_nodes);
     }},
    {"site_down_events", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.site_down_events);
     }},
    {"site_up_events", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.site_up_events);
     }},
    {"interruptions", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.interruptions);
     }},
    {"n_interrupted", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.n_interrupted);
     }},
    {"churn_released_nodes", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.churn_released_nodes);
     }},
    {"churn_unreleased_nodes", true,
     [](const metrics::RunMetrics& run) {
       return static_cast<double>(run.churn_unreleased_nodes);
     }},
    // Wall time in schedule_into(): varies run to run, so it never enters
    // the byte-stable JSON artifact.
    {"scheduler_seconds", false,
     [](const metrics::RunMetrics& run) { return run.scheduler_seconds; }},
}};

}  // namespace

std::string_view status_name(CellStatus status) noexcept {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kFailed:
      return "failed";
    case CellStatus::kTimedOut:
      return "timed_out";
  }
  return "failed";  // unreachable; keeps -Wreturn-type quiet
}

CellStatus parse_status(std::string_view text) {
  if (text == "ok") return CellStatus::kOk;
  if (text == "failed") return CellStatus::kFailed;
  if (text == "timed_out") return CellStatus::kTimedOut;
  throw std::invalid_argument("parse_status: unknown cell status \"" +
                              std::string(text) + "\"");
}

std::span<const MetricDef> metric_defs() { return kMetricDefs; }

const MetricDef* find_metric(std::string_view key) {
  for (const MetricDef& def : kMetricDefs) {
    if (def.key == key) return &def;
  }
  return nullptr;
}

std::vector<const MetricDef*> resolve_metrics(const CampaignSpec& spec) {
  std::vector<const MetricDef*> resolved;
  for (const MetricDef& def : kMetricDefs) {
    if (spec.metrics.empty()) {
      if (def.deterministic) resolved.push_back(&def);
      continue;
    }
    for (const std::string& key : spec.metrics) {
      if (def.key == key) {
        resolved.push_back(&def);
        break;
      }
    }
  }
  return resolved;
}

CampaignAggregator::CampaignAggregator(const CampaignSpec& spec)
    : spec_(spec), metrics_(resolve_metrics(spec_)) {
  const std::size_t n_groups = spec.scenarios.size() * spec.policies.size();
  stats_.resize(n_groups, std::vector<util::RunningStats>(metrics_.size()));
  counts_.resize(n_groups, 0);
  failed_.resize(n_groups, 0);
  timed_out_.resize(n_groups, 0);
}

std::size_t CampaignAggregator::group_index(std::size_t scenario_index,
                                            std::size_t policy_index) const {
  if (scenario_index >= spec_.scenarios.size() ||
      policy_index >= spec_.policies.size()) {
    throw std::out_of_range("CampaignAggregator: cell outside the spec");
  }
  return scenario_index * spec_.policies.size() + policy_index;
}

void CampaignAggregator::add(std::size_t scenario_index,
                             std::size_t policy_index,
                             const metrics::RunMetrics& run) {
  const std::size_t group = group_index(scenario_index, policy_index);
  for (std::size_t m = 0; m < metrics_.size(); ++m) {
    stats_[group][m].add(metrics_[m]->value(run));
  }
  ++counts_[group];
}

void CampaignAggregator::add_lost(std::size_t scenario_index,
                                  std::size_t policy_index,
                                  CellStatus status) {
  const std::size_t group = group_index(scenario_index, policy_index);
  switch (status) {
    case CellStatus::kOk:
      throw std::invalid_argument(
          "CampaignAggregator::add_lost: ok cells go through add()");
    case CellStatus::kFailed:
      ++failed_[group];
      break;
    case CellStatus::kTimedOut:
      ++timed_out_[group];
      break;
  }
}

std::span<const std::string_view> series_column_keys() {
  static constexpr std::array<std::string_view, 7> kKeys = {
      "ready",     "in_flight", "sites_up",     "busy_mean",
      "completed", "failures",  "interruptions"};
  return kKeys;
}

void CampaignAggregator::add_series(std::size_t scenario_index,
                                    std::size_t policy_index,
                                    const obs::TimeSeries& series) {
  const std::size_t group = group_index(scenario_index, policy_index);
  if (series_stats_.empty()) {
    series_stats_.resize(stats_.size());
    series_counts_.resize(stats_.size(), 0);
    series_interval_ = series.interval;
  } else if (series.interval != series_interval_) {
    throw std::invalid_argument(
        "CampaignAggregator::add_series: sample interval differs between "
        "cells — the reduction needs one boundary grid campaign-wide");
  }
  std::vector<std::vector<util::RunningStats>>& columns =
      series_stats_[group];
  columns.resize(series_column_keys().size());
  ++series_counts_[group];
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const obs::TimeSeriesSample& sample = series.samples[i];
    // Only boundary-grid samples reduce; the terminal makespan sample's
    // time is replication-specific and falls off the common axis.
    if (sample.t != static_cast<double>(i) * series.interval) break;
    double busy_sum = 0.0;
    for (const double fraction : sample.busy) busy_sum += fraction;
    const double busy_mean =
        sample.busy.empty()
            ? 0.0
            : busy_sum / static_cast<double>(sample.busy.size());
    const std::array<double, 7> values = {
        static_cast<double>(sample.ready),
        static_cast<double>(sample.in_flight),
        static_cast<double>(sample.sites_up),
        busy_mean,
        static_cast<double>(sample.completed),
        static_cast<double>(sample.failures),
        static_cast<double>(sample.interruptions)};
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (columns[c].size() <= i) columns[c].resize(i + 1);
      columns[c][i].add(values[c]);
    }
  }
}

std::vector<SeriesGroupSummary> CampaignAggregator::series_groups() const {
  std::vector<SeriesGroupSummary> groups;
  if (series_stats_.empty()) return groups;
  for (std::size_t s = 0; s < spec_.scenarios.size(); ++s) {
    for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
      const std::size_t index = s * spec_.policies.size() + p;
      if (series_counts_[index] == 0) continue;
      const std::vector<std::vector<util::RunningStats>>& columns =
          series_stats_[index];
      SeriesGroupSummary group;
      group.scenario = spec_.scenarios[s].display();
      group.policy = spec_.policies[p].display();
      group.interval = series_interval_;
      group.replications = series_counts_[index];
      const std::size_t n_samples =
          columns.empty() ? 0 : columns.front().size();
      group.t.reserve(n_samples);
      for (std::size_t i = 0; i < n_samples; ++i) {
        group.t.push_back(static_cast<double>(i) * series_interval_);
      }
      group.columns.reserve(columns.size());
      for (std::size_t c = 0; c < columns.size(); ++c) {
        SeriesColumn column;
        column.key = std::string(series_column_keys()[c]);
        column.samples.reserve(columns[c].size());
        for (const util::RunningStats& stats : columns[c]) {
          column.samples.push_back(util::summarize(stats));
        }
        group.columns.push_back(std::move(column));
      }
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

std::vector<GroupSummary> CampaignAggregator::groups() const {
  std::vector<GroupSummary> groups;
  groups.reserve(stats_.size());
  for (std::size_t s = 0; s < spec_.scenarios.size(); ++s) {
    for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
      const std::size_t index = s * spec_.policies.size() + p;
      GroupSummary group;
      group.scenario = spec_.scenarios[s].display();
      group.policy = spec_.policies[p].display();
      group.cells = counts_[index];
      group.expected = spec_.replications;
      group.failed = failed_[index];
      group.timed_out = timed_out_[index];
      group.metrics.reserve(metrics_.size());
      for (std::size_t m = 0; m < metrics_.size(); ++m) {
        MetricSummary summary;
        summary.key = std::string(metrics_[m]->key);
        summary.deterministic = metrics_[m]->deterministic;
        summary.summary = util::summarize(stats_[index][m]);
        group.metrics.push_back(std::move(summary));
      }
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

}  // namespace gridsched::exp::campaign
