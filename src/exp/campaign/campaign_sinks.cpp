#include "exp/campaign/campaign_sinks.hpp"

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "obs/timeseries.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace gridsched::exp::campaign {

namespace {

std::string format_mean_ci(const util::Summary& summary) {
  char buffer[64];
  if (summary.count < 2) {
    std::snprintf(buffer, sizeof buffer, "%.6g", summary.mean);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.6g ±%.3g", summary.mean,
                  summary.ci95);
  }
  return buffer;
}

std::string hex_seed(std::uint64_t seed) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buffer;
}

}  // namespace

std::string render_table(const CampaignResult& result) {
  std::vector<std::string> headers = {"scenario", "policy", "cells"};
  const std::vector<const MetricDef*> metrics = resolve_metrics(result.spec);
  for (const MetricDef* def : metrics) {
    headers.emplace_back(std::string(def->key) + " (mean ±95% CI)");
  }
  util::Table table(std::move(headers));
  for (const GroupSummary& group : result.groups) {
    // Degraded groups show surviving/expected ("2/3") so a reduced n is
    // visible right in the grid; clean groups keep the plain count.
    std::string cells_text = std::to_string(group.cells);
    if (group.degraded()) {
      cells_text += '/';
      cells_text += std::to_string(group.expected);
    }
    table.row().cell(group.scenario).cell(group.policy).cell(cells_text);
    for (const MetricSummary& metric : group.metrics) {
      table.cell(format_mean_ci(metric.summary));
    }
  }
  std::ostringstream out;
  out << table.str();
  char footer[160];
  std::snprintf(footer, sizeof footer,
                "%zu cells (%zu jobs) in %.2f s on %zu threads — %.1f "
                "cells/s\n",
                result.cells.size(), result.jobs_simulated,
                result.wall_seconds, result.threads,
                result.cells_per_second());
  out << footer;
  if (!result.complete()) {
    char degraded[160];
    std::snprintf(degraded, sizeof degraded,
                  "DEGRADED: %zu cell(s) failed, %zu timed out — means "
                  "cover surviving replications only\n",
                  result.failed_cells(), result.timed_out_cells());
    out << degraded;
  }
  return out.str();
}

std::string render_csv(const CampaignResult& result) {
  util::Table table(
      {"scenario", "policy", "metric", "count", "mean", "stddev", "ci95"});
  for (const GroupSummary& group : result.groups) {
    for (const MetricSummary& metric : group.metrics) {
      table.row()
          .cell(group.scenario)
          .cell(group.policy)
          .cell(metric.key)
          .cell(metric.summary.count)
          .cell(metric.summary.mean, 9)
          .cell(metric.summary.stddev, 9)
          .cell(metric.summary.ci95, 9);
    }
  }
  return table.csv();
}

std::string render_json(const CampaignResult& result) {
  using util::json::number;
  using util::json::quote;
  const std::vector<const MetricDef*> metrics = resolve_metrics(result.spec);

  std::ostringstream out;
  out << "{\n";
  out << "  \"campaign\": " << quote(result.spec.name) << ",\n";
  // uint64 seeds exceed double precision; emit exact integer text (spec
  // seed) / hex strings (cell seeds) rather than rounding through number().
  out << "  \"seed\": " << result.spec.seed << ",\n";
  out << "  \"replications\": " << result.spec.replications << ",\n";

  out << "  \"scenarios\": [";
  for (std::size_t s = 0; s < result.spec.scenarios.size(); ++s) {
    out << (s ? ", " : "") << quote(result.spec.scenarios[s].display());
  }
  out << "],\n";
  out << "  \"policies\": [";
  for (std::size_t p = 0; p < result.spec.policies.size(); ++p) {
    out << (p ? ", " : "") << quote(result.spec.policies[p].display());
  }
  out << "],\n";
  out << "  \"metrics\": [";
  bool first = true;
  for (const MetricDef* def : metrics) {
    if (!def->deterministic) continue;  // stability contract
    out << (first ? "" : ", ") << quote(def->key);
    first = false;
  }
  out << "],\n";

  out << "  \"groups\": [\n";
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const GroupSummary& group = result.groups[g];
    out << "    {\n";
    out << "      \"scenario\": " << quote(group.scenario) << ",\n";
    out << "      \"policy\": " << quote(group.policy) << ",\n";
    out << "      \"cells\": " << group.cells << ",\n";
    // Degradation fields are conditional so clean campaigns stay
    // byte-identical to pre-fault-tolerance artifacts.
    if (group.degraded()) {
      out << "      \"expected\": " << group.expected << ",\n";
      out << "      \"failed\": " << group.failed << ",\n";
      out << "      \"timed_out\": " << group.timed_out << ",\n";
    }
    out << "      \"metrics\": {";
    first = true;
    for (const MetricSummary& metric : group.metrics) {
      if (!metric.deterministic) continue;
      out << (first ? "\n" : ",\n");
      first = false;
      out << "        " << quote(metric.key) << ": {\"count\": "
          << metric.summary.count << ", \"mean\": "
          << number(metric.summary.mean) << ", \"stddev\": "
          << number(metric.summary.stddev) << ", \"ci95\": "
          << number(metric.summary.ci95) << "}";
    }
    out << (first ? "" : "\n      ") << "}\n";
    out << "    }" << (g + 1 < result.groups.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    out << "    {\"scenario\": "
        << quote(result.spec.scenarios[cell.cell.scenario].display())
        << ", \"policy\": "
        << quote(result.spec.policies[cell.cell.policy].display())
        << ", \"replication\": " << cell.cell.replication
        << ", \"seed\": " << quote(hex_seed(cell.cell.seed));
    if (cell.status == CellStatus::kOk) {
      for (const MetricDef* def : metrics) {
        if (!def->deterministic) continue;
        out << ", " << quote(def->key) << ": "
            << number(def->value(cell.metrics));
      }
    } else {
      // Lost cells carry their status and error instead of metric values
      // (which would be meaningless defaults).
      out << ", \"status\": " << quote(status_name(cell.status))
          << ", \"error\": " << quote(cell.error);
    }
    out << "}" << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string render_profile(const CampaignResult& result) {
  using util::json::number;
  using util::json::quote;

  std::ostringstream out;
  out << "{\n";
  out << "  \"campaign\": " << quote(result.spec.name) << ",\n";
  out << "  \"threads\": " << result.threads << ",\n";
  out << "  \"wall_seconds\": " << number(result.wall_seconds) << ",\n";
  out << "  \"cells_per_second\": " << number(result.cells_per_second())
      << ",\n";
  out << "  \"jobs_simulated\": " << result.jobs_simulated << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    out << "    {\"scenario\": "
        << quote(result.spec.scenarios[cell.cell.scenario].display())
        << ", \"policy\": "
        << quote(result.spec.policies[cell.cell.policy].display())
        << ", \"replication\": " << cell.cell.replication
        << ", \"wall_seconds\": " << number(cell.wall_seconds)
        << ", \"scheduler_seconds\": "
        << number(cell.metrics.scheduler_seconds)
        << ", \"batch_invocations\": " << cell.metrics.batch_invocations;
    // Retry/status accounting, conditional so clean single-attempt runs
    // keep the pre-fault-tolerance sidecar bytes.
    if (cell.attempts != 1) out << ", \"attempts\": " << cell.attempts;
    if (cell.status != CellStatus::kOk) {
      out << ", \"status\": " << quote(status_name(cell.status));
    }
    out << "}" << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string timeseries_cell_filename(const CampaignResult& result,
                                     const CellResult& cell) {
  const auto sanitize = [](const std::string& label) {
    std::string out;
    out.reserve(label.size());
    for (const char c : label) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
      out += keep ? c : '-';
    }
    return out;
  };
  return sanitize(result.spec.scenarios[cell.cell.scenario].display()) +
         "__" + sanitize(result.spec.policies[cell.cell.policy].display()) +
         "__rep" + std::to_string(cell.cell.replication) + ".json";
}

std::string render_series_aggregate_json(const CampaignResult& result) {
  using util::json::number;
  using util::json::quote;

  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"gridsched-timeseries-aggregate-v1\",\n";
  out << "  \"campaign\": " << quote(result.spec.name) << ",\n";
  out << "  \"seed\": " << result.spec.seed << ",\n";
  out << "  \"groups\": [\n";
  for (std::size_t g = 0; g < result.series_groups.size(); ++g) {
    const SeriesGroupSummary& group = result.series_groups[g];
    out << "    {\n";
    out << "      \"scenario\": " << quote(group.scenario) << ",\n";
    out << "      \"policy\": " << quote(group.policy) << ",\n";
    out << "      \"interval\": " << number(group.interval) << ",\n";
    out << "      \"replications\": " << group.replications << ",\n";
    out << "      \"t\": [";
    for (std::size_t i = 0; i < group.t.size(); ++i) {
      out << (i ? ", " : "") << number(group.t[i]);
    }
    out << "],\n";
    out << "      \"series\": {";
    for (std::size_t c = 0; c < group.columns.size(); ++c) {
      const SeriesColumn& column = group.columns[c];
      out << (c ? ",\n" : "\n");
      out << "        " << quote(column.key) << ": {\"mean\": [";
      for (std::size_t i = 0; i < column.samples.size(); ++i) {
        out << (i ? ", " : "") << number(column.samples[i].mean);
      }
      out << "], \"ci95\": [";
      for (std::size_t i = 0; i < column.samples.size(); ++i) {
        out << (i ? ", " : "") << number(column.samples[i].ci95);
      }
      out << "], \"count\": [";
      for (std::size_t i = 0; i < column.samples.size(); ++i) {
        out << (i ? ", " : "") << column.samples[i].count;
      }
      out << "]}";
    }
    out << (group.columns.empty() ? "" : "\n      ") << "}\n";
    out << "    }" << (g + 1 < result.series_groups.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

void write_timeseries_dir(const CampaignResult& result,
                          const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    throw std::runtime_error("cannot create timeseries directory " + dir +
                             ": " + error.message());
  }
  for (const CellResult& cell : result.cells) {
    if (cell.series == nullptr) continue;
    util::write_file(dir + "/" + timeseries_cell_filename(result, cell),
                     obs::render_timeseries_json(*cell.series));
  }
  util::write_file(dir + "/aggregate.json",
                   render_series_aggregate_json(result));
}

}  // namespace gridsched::exp::campaign
