// Campaign result rendering: a pretty util::Table summary, long-format
// CSV (one row per group x metric — tidy data for plotting), and a
// byte-stable JSON artifact suitable for committing next to the bench
// JSON. The renderers are pure functions of the result; callers print
// them or put them on disk with util::write_file.
//
// Stability contract: render_json() emits only deterministic fields —
// spec echo, per-group aggregates of deterministic metrics, per-cell
// seeds — with doubles in shortest-exact form. Two runs of the same spec
// produce byte-identical JSON regardless of thread count. Wall-clock
// throughput appears in render_table() only.
#pragma once

#include <string>

#include "exp/campaign/campaign_runner.hpp"

namespace gridsched::exp::campaign {

/// Aligned summary table plus a wall-clock/throughput footer.
std::string render_table(const CampaignResult& result);

/// Long-format CSV: scenario,policy,metric,count,mean,stddev,ci95.
std::string render_csv(const CampaignResult& result);

/// Stable JSON artifact (deterministic fields only; trailing newline).
std::string render_json(const CampaignResult& result);

/// Wall-clock profile sidecar JSON: campaign-level throughput plus one
/// row per cell {scenario, policy, replication, wall_seconds,
/// scheduler_seconds, batch_invocations}. Deliberately a SEPARATE
/// artifact from render_json — wall-clock fields are non-deterministic
/// and must never contaminate the byte-stable aggregate (PR 4 contract).
std::string render_profile(const CampaignResult& result);

/// Label-keyed basename for one cell's timeseries artifact:
/// "<scenario>__<policy>__rep<k>.json" with display labels sanitized to
/// [A-Za-z0-9._-]. Labels, never matrix indices — inserting a scenario
/// does not rename the other cells' artifacts.
std::string timeseries_cell_filename(const CampaignResult& result,
                                     const CellResult& cell);

/// Aggregated cross-replication series artifact (trailing newline):
/// per group, the boundary-time axis plus per-sample mean / stddev /
/// t-CI / count for each reduced column. Deterministic fields only —
/// byte-stable at any thread count.
std::string render_series_aggregate_json(const CampaignResult& result);

/// Write one JSON file per cell that carries a series (see
/// timeseries_cell_filename) plus "aggregate.json" into `dir`, creating
/// the directory if needed. Cells replayed from a journal carry no
/// series and are skipped. Throws std::runtime_error on I/O failure.
void write_timeseries_dir(const CampaignResult& result,
                          const std::string& dir);

}  // namespace gridsched::exp::campaign
