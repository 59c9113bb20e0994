// Statistical reduction of a campaign's cell results: per (scenario,
// policy) group, each requested metric is reduced to count / mean /
// sample stddev / t-distribution 95% CI via util::summarize. Cells are
// fed in matrix order after the shard fan-out completes, so aggregates
// are byte-stable regardless of thread count or completion order.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign/campaign_spec.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"

namespace gridsched::obs {
struct TimeSeries;  // obs/timeseries.hpp
}  // namespace gridsched::obs

namespace gridsched::exp::campaign {

/// Outcome of one campaign cell. A cell is `ok` only when run_once
/// returned metrics; `failed` covers thrown exceptions (real or
/// injected) after any retries, `timed_out` a cell whose CancelToken
/// watchdog fired. Non-ok cells never contribute samples to a group —
/// the group is *degraded* (reduced n) instead of poisoned.
enum class CellStatus { kOk, kFailed, kTimedOut };

/// Stable wire name ("ok", "failed", "timed_out") — used by the journal
/// and the JSON artifact.
std::string_view status_name(CellStatus status) noexcept;

/// Inverse of status_name; throws std::invalid_argument on unknown text.
CellStatus parse_status(std::string_view text);

/// A reportable scalar: one RunMetrics field, real or count, under a
/// stable name. The one name table both reads a field (reports, journal
/// encode) and writes it back (journal decode). `deterministic` marks
/// metrics that are pure functions of (scenario, policy, seed);
/// wall-clock metrics (scheduler_seconds) are excluded from the stable
/// JSON artifact and the journal, and only appear in table/CSV output
/// when requested.
struct MetricDef {
  using Real = double metrics::RunMetrics::*;
  using Count = std::size_t metrics::RunMetrics::*;

  constexpr MetricDef(std::string_view name, Real field,
                      bool is_deterministic = true)
      : key(name), deterministic(is_deterministic), real(field) {}
  constexpr MetricDef(std::string_view name, Count field)
      : key(name), deterministic(true), count(field) {}

  [[nodiscard]] double value(const metrics::RunMetrics& run) const {
    return real != nullptr ? run.*real : static_cast<double>(run.*count);
  }
  /// Writes `value` back into the field. Returns false, writing nothing,
  /// when a count's value is not a whole number in size_t's range (NaN,
  /// negative, fractional or too large), so a corrupt input cannot reach
  /// the cast.
  [[nodiscard]] bool assign(metrics::RunMetrics& run, double value) const {
    if (real != nullptr) {
      run.*real = value;
      return true;
    }
    // max() rounds up to 2^64 as a double: the first value past the range.
    constexpr double kEnd =
        static_cast<double>(std::numeric_limits<std::size_t>::max());
    if (!(value >= 0.0 && value < kEnd) || value != std::floor(value)) {
      return false;
    }
    run.*count = static_cast<std::size_t>(value);
    return true;
  }

  std::string_view key;
  bool deterministic;
  Real real = nullptr;    ///< set for real-valued metrics
  Count count = nullptr;  ///< set for counts
};

/// All known metrics, in canonical report order.
std::span<const MetricDef> metric_defs();

/// Lookup by key; nullptr when unknown.
const MetricDef* find_metric(std::string_view key);

/// The spec's requested metrics resolved to defs (empty request = all
/// deterministic metrics), in canonical order.
std::vector<const MetricDef*> resolve_metrics(const CampaignSpec& spec);

struct MetricSummary {
  std::string key;
  bool deterministic = true;
  util::Summary summary;
};

struct GroupSummary {
  std::string scenario;  ///< scenario display label
  std::string policy;    ///< policy display label
  std::size_t cells = 0;     ///< surviving (ok) replications
  std::size_t expected = 0;  ///< spec.replications
  std::size_t failed = 0;    ///< cells lost to faults (after retries)
  std::size_t timed_out = 0; ///< cells lost to the watchdog
  std::vector<MetricSummary> metrics;  ///< canonical order

  /// True when any replication was lost: the summaries are over a
  /// reduced n and sinks must say so.
  [[nodiscard]] bool degraded() const noexcept { return cells < expected; }
};

/// The reduced timeseries columns, in artifact order. busy_mean is the
/// per-sample mean busy fraction across the scenario's sites (per-site
/// curves stay in the per-cell artifacts; the cross-replication reduction
/// needs a scalar).
std::span<const std::string_view> series_column_keys();

/// One reduced timeseries column: summaries[k] is the mean / t-CI of the
/// column at sample boundary k over the replications whose series reach
/// that boundary (the count shrinks at the tail as shorter runs drop
/// out — Summary::count says over how many).
struct SeriesColumn {
  std::string key;
  std::vector<util::Summary> samples;
};

/// Per-group cross-replication timeseries reduction. Only samples on the
/// boundary grid t_k = k * interval participate; each cell's terminal
/// makespan sample is a per-cell artifact detail and is excluded (its
/// time differs per replication, so there is no common axis for it).
struct SeriesGroupSummary {
  std::string scenario;  ///< scenario display label
  std::string policy;    ///< policy display label
  double interval = 0.0;
  std::size_t replications = 0;  ///< series fed into the reduction
  std::vector<double> t;         ///< boundary times, k * interval
  std::vector<SeriesColumn> columns;  ///< series_column_keys() order
};

class CampaignAggregator {
 public:
  explicit CampaignAggregator(const CampaignSpec& spec);

  /// Accumulate one surviving cell. Call in matrix order for stable
  /// output.
  void add(std::size_t scenario_index, std::size_t policy_index,
           const metrics::RunMetrics& run);

  /// Record a lost cell (failed or timed out): no metric samples, but
  /// the group's degradation counters reflect it.
  void add_lost(std::size_t scenario_index, std::size_t policy_index,
                CellStatus status);

  /// Accumulate one surviving cell's telemetry series into the group's
  /// per-sample reduction. Call in matrix order (like add) for stable
  /// output; the boundary grid must share one interval campaign-wide
  /// (throws std::invalid_argument on a mismatch).
  void add_series(std::size_t scenario_index, std::size_t policy_index,
                  const obs::TimeSeries& series);

  /// Scenario-major, policy-minor group summaries.
  [[nodiscard]] std::vector<GroupSummary> groups() const;

  /// Reduced timeseries for every group that received at least one
  /// series, scenario-major. Empty when add_series was never called.
  [[nodiscard]] std::vector<SeriesGroupSummary> series_groups() const;

 private:
  /// By value: binding a caller's temporary must not dangle, and the
  /// aggregator outlives the runner's local state in some call shapes.
  CampaignSpec spec_;
  std::vector<const MetricDef*> metrics_;
  [[nodiscard]] std::size_t group_index(std::size_t scenario_index,
                                        std::size_t policy_index) const;

  /// groups_[scenario * n_policies + policy][metric]
  std::vector<std::vector<util::RunningStats>> stats_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> failed_;
  std::vector<std::size_t> timed_out_;

  /// series_stats_[group][column][sample index]; lazily grown to the
  /// longest series the group has seen.
  std::vector<std::vector<std::vector<util::RunningStats>>> series_stats_;
  std::vector<std::size_t> series_counts_;
  double series_interval_ = 0.0;
};

}  // namespace gridsched::exp::campaign
