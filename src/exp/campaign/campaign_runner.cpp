#include "exp/campaign/campaign_runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "exp/campaign/campaign_journal.hpp"
#include "exp/fault_plan.hpp"
#include "exp/runner.hpp"
#include "obs/timeseries.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gridsched::exp::campaign {

std::uint64_t cell_seed(const CampaignSpec& spec, std::size_t scenario_index,
                        std::size_t replication) {
  return util::SeedMix(spec.seed)
      .mix(spec.scenarios[scenario_index].display())
      .mix(static_cast<std::uint64_t>(replication))
      .seed();
}

std::vector<Cell> expand(const CampaignSpec& spec) {
  spec.validate();
  std::vector<Cell> cells;
  cells.reserve(spec.scenarios.size() * spec.policies.size() *
                spec.replications);
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      for (std::size_t r = 0; r < spec.replications; ++r) {
        Cell cell;
        cell.scenario = s;
        cell.policy = p;
        cell.replication = r;
        cell.seed = cell_seed(spec, s, r);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::size_t CampaignResult::failed_cells() const noexcept {
  std::size_t n = 0;
  for (const CellResult& cell : cells) {
    if (cell.status == CellStatus::kFailed) ++n;
  }
  return n;
}

std::size_t CampaignResult::timed_out_cells() const noexcept {
  std::size_t n = 0;
  for (const CellResult& cell : cells) {
    if (cell.status == CellStatus::kTimedOut) ++n;
  }
  return n;
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_(std::move(options)) {}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) {
  if (options_.resume && options_.checkpoint.empty()) {
    throw std::invalid_argument(
        "campaign: --resume requires --checkpoint FILE");
  }

  CampaignResult result;
  result.spec = spec;
  const std::vector<Cell> cells = expand(spec);  // validates

  // Resolve both axes once up front: registry lookups throw here (before
  // any simulation) and the factories are shared by all cells.
  std::vector<Scenario> scenarios;
  scenarios.reserve(spec.scenarios.size());
  for (const ScenarioRef& ref : spec.scenarios) {
    scenarios.push_back(ref.resolve());
  }
  std::vector<AlgorithmSpec> algorithms;
  algorithms.reserve(spec.policies.size());
  for (const PolicyRef& ref : spec.policies) {
    algorithms.push_back(ref.resolve());
  }

  result.cells.resize(cells.size());
  std::vector<char> replayed(cells.size(), 0);
  std::size_t n_replayed = 0;

  if (options_.resume) {
    JournalContents journal =
        load_journal(options_.checkpoint, spec.name, spec.seed);
    std::unordered_map<std::string, const JournalRecord*> by_key;
    by_key.reserve(journal.records.size());
    for (const JournalRecord& record : journal.records) {
      by_key[record.key()] = &record;  // last write wins (retried resumes)
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      JournalRecord probe;
      probe.scenario = spec.scenarios[cells[i].scenario].display();
      probe.policy = spec.policies[cells[i].policy].display();
      probe.replication = cells[i].replication;
      const auto it = by_key.find(probe.key());
      if (it == by_key.end()) continue;
      const JournalRecord& record = *it->second;
      if (record.seed != cells[i].seed) {
        throw std::runtime_error(
            "campaign journal: recorded seed for {scenario=" +
            record.scenario + ", policy=" + record.policy +
            ", replication=" + std::to_string(record.replication) +
            "} does not match the spec — stale journal, refusing to "
            "resume");
      }
      CellResult& out = result.cells[i];
      out.cell = cells[i];
      out.status = record.status;
      out.error = record.error;
      out.attempts = record.attempts;
      out.metrics = record.metrics;
      replayed[i] = 1;
      ++n_replayed;
    }
  }

  std::unique_ptr<JournalWriter> writer;
  if (!options_.checkpoint.empty()) {
    writer = std::make_unique<JournalWriter>(options_.checkpoint, spec.name,
                                             spec.seed,
                                             /*append=*/options_.resume);
  }

  std::mutex progress_mutex;
  std::size_t done = n_replayed;
  auto run_cell = [&](std::size_t i) {
    if (replayed[i]) return;
    CellResult& out = result.cells[i];
    out.cell = cells[i];
    const std::string& scenario_label =
        spec.scenarios[cells[i].scenario].display();
    const std::string policy_label =
        spec.policies[cells[i].policy].display();
    // Cell timing reaches the --profile sidecar only, never the
    // byte-stable aggregate (ROADMAP "Campaign fault-tolerance").
    // NOLINTNEXTLINE(GS-R05): wall-clock is sidecar-only here
    const auto cell_start = std::chrono::steady_clock::now();
    // GA fitness is serial by construction (core::evolve has no threads),
    // so the pool's workers only ever run whole cells and each cell is a
    // pure function of its seed.
    for (unsigned attempt = 0;; ++attempt) {
      out.attempts = attempt + 1;
      // Fresh watchdog per attempt, armed at attempt start.
      util::CancelToken watchdog =
          options_.cell_timeout > 0.0
              ? util::CancelToken::with_deadline(options_.cell_timeout)
              : util::CancelToken();
      RunHooks hooks;
      hooks.cancel = options_.cell_timeout > 0.0 ? &watchdog : nullptr;
      // Telemetry probe: observation-only by the kernel observer
      // contract, so attaching it cannot change out.metrics. The series
      // is kept only for the attempt that produced the final status.
      std::unique_ptr<obs::TimeSeriesProbe> probe;
      if (options_.timeseries_interval > 0.0) {
        probe = std::make_unique<obs::TimeSeriesProbe>(
            options_.timeseries_interval);
        hooks.observer = probe.get();
      }
      try {
        maybe_inject(spec.faults, spec.seed, scenario_label, policy_label,
                     cells[i].replication, attempt);
        out.metrics = run_once(scenarios[cells[i].scenario],
                               algorithms[cells[i].policy], cells[i].seed,
                               /*ga_pool=*/nullptr, hooks);
        out.status = CellStatus::kOk;
        out.error.clear();
        if (probe != nullptr) {
          out.series =
              std::make_shared<const obs::TimeSeries>(probe->series());
        }
        break;
      } catch (const util::CancelledError& e) {
        // The budget is spent; a retry would spend it again on the same
        // deterministic hang. Surface timed_out and move on.
        out.status = CellStatus::kTimedOut;
        out.error = e.what();
        break;
      } catch (const std::exception& e) {
        out.status = CellStatus::kFailed;
        out.error = e.what();
        if (attempt < options_.retries) continue;
        break;
      }
    }
    out.wall_seconds = std::chrono::duration<double>(
                           // NOLINTNEXTLINE(GS-R05): sidecar-only
                           std::chrono::steady_clock::now() - cell_start)
                           .count();
    // Journal before any strict-mode throw: the finished work survives
    // the abort. Strict non-ok cells are NOT journaled — after the user
    // fixes the fault, --resume should re-run them.
    if (writer != nullptr &&
        (out.status == CellStatus::kOk || !options_.strict)) {
      JournalRecord record;
      record.scenario = scenario_label;
      record.policy = policy_label;
      record.replication = cells[i].replication;
      record.seed = cells[i].seed;
      record.status = out.status;
      record.attempts = out.attempts;
      record.error = out.error;
      record.metrics = out.metrics;
      writer->append(record);
    }
    if (options_.strict && out.status != CellStatus::kOk) {
      // The pool rethrows worker exceptions context-free; label the
      // failing cell here so a campaign abort names the exact
      // {scenario, policy, replication} that died.
      throw std::runtime_error(
          "campaign cell {scenario=" + scenario_label +
          ", policy=" + policy_label +
          ", replication=" + std::to_string(cells[i].replication) +
          ", seed=" + std::to_string(cells[i].seed) + "}: " + out.error);
    }
    if (options_.on_cell) {
      const std::lock_guard lock(progress_mutex);
      options_.on_cell(out, ++done, cells.size());
    }
  };

  // Campaign wall seconds feed the table footer and throughput logging
  // on stdout/stderr — render_json deliberately never serializes them.
  // NOLINTNEXTLINE(GS-R05): wall-clock is display-only here
  const auto start = std::chrono::steady_clock::now();
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, cells.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
    threads = 1;
  } else {
    util::ThreadPool pool(threads);
    // One task per cell: cell costs span orders of magnitude, so any
    // coarser split serialises the tail behind the slowest cell.
    pool.parallel_for(cells.size(), run_cell);
  }
  result.wall_seconds =
      // NOLINTNEXTLINE(GS-R05): wall-clock is display-only here
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.threads = threads;

  // Aggregate in matrix order — never completion order — so the summary
  // floats are bit-identical for any thread count. Lost cells contribute
  // no samples, only degradation counters.
  CampaignAggregator aggregator(result.spec);
  for (const CellResult& cell : result.cells) {
    if (cell.status == CellStatus::kOk) {
      aggregator.add(cell.cell.scenario, cell.cell.policy, cell.metrics);
      result.jobs_simulated += cell.metrics.n_jobs;
      if (cell.series != nullptr) {
        aggregator.add_series(cell.cell.scenario, cell.cell.policy,
                              *cell.series);
      }
    } else {
      aggregator.add_lost(cell.cell.scenario, cell.cell.policy, cell.status);
    }
  }
  result.groups = aggregator.groups();
  result.series_groups = aggregator.series_groups();
  return result;
}

}  // namespace gridsched::exp::campaign
