// Campaign execution: expand a CampaignSpec into its flat
// {scenario x policy x replication} run matrix, shard the cells across a
// thread pool (one task per cell — GA cells run ~100x longer than
// heuristic cells, so fine-grained tasks keep the pool busy), and reduce
// the results with CampaignAggregator.
//
// Determinism contract: every cell runs under
//   seed = SeedMix(spec.seed).mix(scenario label).mix(replication)
// with GA fitness evaluation serial inside the cell, so cell results —
// and therefore the aggregate JSON artifact — are byte-identical for any
// --threads value and any execution order. The policy label is not mixed
// in: the policies of one (scenario, replication) pair are *paired* — they
// see the same workload, the same failure hash and the same GA seed, so a
// difference between two policies is the policies' doing, not the draw's.
// Wall-clock fields (CampaignResult::wall_seconds and friends) are the only
// exception to byte-identity and never enter the artifact.
//
// Fault tolerance (PR 7): cells fail *individually*. A throwing or
// timed-out cell is recorded with its status and error, every other cell
// still runs, and the aggregate degrades to the surviving replications —
// unless RunnerOptions::strict restores abort-on-first-error. With a
// checkpoint path set, every finished cell is journaled (fsync'd JSONL)
// and `resume` replays the journal instead of re-running those cells;
// because journal records carry only deterministic values, a resumed
// aggregate is byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/campaign/campaign_aggregator.hpp"
#include "exp/campaign/campaign_spec.hpp"
#include "metrics/metrics.hpp"

namespace gridsched::exp::campaign {

/// One run of the campaign matrix, in scenario-major, policy-minor,
/// replication-innermost order.
struct Cell {
  std::size_t scenario = 0;     ///< index into spec.scenarios
  std::size_t policy = 0;       ///< index into spec.policies
  std::size_t replication = 0;  ///< [0, spec.replications)
  std::uint64_t seed = 0;       ///< deterministic per-cell stream
};

/// Per-cell seed; depends only on (spec seed, scenario label, replication)
/// — never on axis indices, so inserting a scenario does not reseed the
/// others, and never on the policy, so every policy of a replication
/// shares it.
std::uint64_t cell_seed(const CampaignSpec& spec, std::size_t scenario_index,
                        std::size_t replication);

/// The flat run matrix (validates the spec first).
std::vector<Cell> expand(const CampaignSpec& spec);

struct CellResult {
  Cell cell;
  /// Valid only when status == kOk; default-initialized otherwise.
  metrics::RunMetrics metrics;
  /// Wall time of this cell's run_once (non-deterministic; feeds the
  /// profile sidecar and the table footer, never the aggregate JSON).
  /// Zero for cells replayed from a journal.
  double wall_seconds = 0.0;
  CellStatus status = CellStatus::kOk;
  /// The final attempt's exception what(); empty when status == kOk.
  std::string error;
  /// run_once invocations spent on this cell (1 + retries used). Cells
  /// replayed from a journal keep their recorded count.
  unsigned attempts = 1;
  /// Deterministic sim-time telemetry sampled by a TimeSeriesProbe when
  /// RunnerOptions::timeseries_interval > 0; null otherwise, for non-ok
  /// cells, and for cells replayed from a journal (the journal records
  /// scalar metrics only — a resumed campaign re-runs nothing, so those
  /// cells ship no series).
  std::shared_ptr<const obs::TimeSeries> series;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<CellResult> cells;      ///< matrix order
  std::vector<GroupSummary> groups;   ///< scenario-major aggregate
  /// Per-group cross-replication series reduction (empty unless
  /// RunnerOptions::timeseries_interval > 0). Reduced in matrix order
  /// like `groups`, so the series artifact is byte-stable too.
  std::vector<SeriesGroupSummary> series_groups;

  /// Wall-clock throughput (non-deterministic; table output only).
  double wall_seconds = 0.0;
  std::size_t threads = 1;
  std::size_t jobs_simulated = 0;
  [[nodiscard]] double cells_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(cells.size()) / wall_seconds
               : 0.0;
  }

  [[nodiscard]] std::size_t failed_cells() const noexcept;
  [[nodiscard]] std::size_t timed_out_cells() const noexcept;
  /// True when every cell survived (the common case; sinks render the
  /// exact pre-fault-tolerance byte format for it).
  [[nodiscard]] bool complete() const noexcept {
    return failed_cells() == 0 && timed_out_cells() == 0;
  }
};

struct RunnerOptions {
  /// Worker threads for the cell fan-out; 0 = hardware_concurrency,
  /// 1 = run serially on the caller.
  std::size_t threads = 0;
  /// Progress hook, invoked per finished cell in completion order under
  /// an internal mutex (callbacks need no locking of their own). Cells
  /// replayed from a journal are not re-announced; `done` starts past
  /// them.
  std::function<void(const CellResult&, std::size_t done, std::size_t total)>
      on_cell;
  /// Abort the campaign on the first cell that still fails after its
  /// retries (pre-PR-7 behavior). Timed-out cells abort too. Default is
  /// graceful degradation: record the loss, run everything else.
  bool strict = false;
  /// Extra run_once attempts per failed cell (same cell seed — a cell is
  /// a pure function of it, so retries only help transient faults).
  /// Timed-out cells are never retried: the budget is already spent.
  unsigned retries = 0;
  /// Per-cell wall-clock budget in seconds (0 = no watchdog), enforced
  /// cooperatively via util::CancelToken at kernel batch-cycle
  /// boundaries and per GA generation.
  double cell_timeout = 0.0;
  /// Journal path for checkpointing (empty = no journal). Without
  /// `resume` an existing file is truncated.
  std::string checkpoint;
  /// Replay `checkpoint` and skip the cells it already records. Requires
  /// `checkpoint`; throws if the journal belongs to a different
  /// campaign/seed or records a mismatching cell seed.
  bool resume = false;
  /// Sample cadence (simulated seconds) for a per-cell TimeSeriesProbe;
  /// 0 disables telemetry (the default — the kernel keeps its
  /// null-observer fast path). The probe is observation-only: cell
  /// metrics stay bit-identical with it attached.
  double timeseries_interval = 0.0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options = {});

  /// Run the full matrix and aggregate. Throws std::invalid_argument on
  /// an invalid spec; exceptions from cells propagate.
  CampaignResult run(const CampaignSpec& spec);

 private:
  RunnerOptions options_;
};

}  // namespace gridsched::exp::campaign
