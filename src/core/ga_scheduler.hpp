// The paper's schedulers built on the GA engine:
//   * StgaScheduler  — Space-Time GA: history-seeded initial populations,
//     heuristic seeds, LRU lookup table (Section 3).
//   * classic GA     — same engine, cold random start each round (the
//     "traditional GA" the paper argues is too slow online).
// Plus RecordingScheduler, which wraps any heuristic and feeds its
// solutions into an STGA history table (the paper's 500-training-job
// bootstrap, DESIGN.md S8).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/ga_engine.hpp"
#include "core/history.hpp"
#include "security/security.hpp"
#include "sim/scheduling.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gridsched::core {

struct StgaConfig {
  GaParams ga;                         ///< population 200 / 100 generations...
  std::size_t table_capacity = 150;    ///< paper Table 1
  double similarity_threshold = 0.8;   ///< paper Table 1
  /// Fraction of the initial population filled from history matches (the
  /// rest is heuristic seeds + random diversity, Section 3).
  double history_seed_fraction = 0.5;
  std::size_t max_history_matches = 8;
  /// Seed the population with Min-Min and Sufferage solutions.
  bool heuristic_seeds = true;
  /// false = classic cold-start GA (no table, no heuristic seeds).
  bool use_history = true;
  /// Eq. 1 coefficient used for the expected-rework fitness term.
  double lambda = security::kDefaultLambda;
  std::uint64_t seed = 7;
};

class GaScheduler : public sim::BatchScheduler {
 public:
  explicit GaScheduler(StgaConfig config, util::ThreadPool* pool = nullptr);

  [[nodiscard]] std::string name() const override {
    return config_.use_history ? "STGA" : "GA";
  }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

  /// Store an externally produced schedule in the history table (training).
  void record_external(const sim::SchedulerContext& context,
                       const std::vector<sim::Assignment>& assignments);

  [[nodiscard]] const HistoryTable& history() const noexcept { return table_; }
  [[nodiscard]] const StgaConfig& config() const noexcept { return config_; }

  /// Collect one GaProfile per schedule_into() call into `sink` (nullptr
  /// disables, the default). The sink must outlive scheduling; profiling
  /// never changes the schedules produced.
  void set_profile_sink(std::vector<GaProfile>* sink) noexcept {
    profile_sink_ = sink;
  }

  /// Attach a cooperative cancel token (nullptr detaches; must outlive
  /// scheduling). Every evolve() this scheduler runs polls it once per
  /// generation — see GaParams::cancel.
  void set_cancel_token(const util::CancelToken* token) noexcept {
    cancel_ = token;
  }

 private:
  std::vector<Chromosome> build_initial_population(
      const GaProblem& problem, const BatchSignature& signature);

  StgaConfig config_;
  util::ThreadPool* pool_;
  HistoryTable table_;
  util::Rng rng_;
  std::vector<GaProfile>* profile_sink_ = nullptr;
  const util::CancelToken* cancel_ = nullptr;
  /// Reused across batches for history-match rescoring and the dispatch
  /// decode order (bound to each batch's problem in schedule_into()).
  DecodeScratch scratch_;
};

/// Convenience factories for the paper's two GA flavours.
std::unique_ptr<GaScheduler> make_stga(StgaConfig config = {},
                                       util::ThreadPool* pool = nullptr);
std::unique_ptr<GaScheduler> make_classic_ga(StgaConfig config = {},
                                             util::ThreadPool* pool = nullptr);

/// Pass-through scheduler that records the inner scheduler's solutions into
/// a GaScheduler's history table.
class RecordingScheduler final : public sim::BatchScheduler {
 public:
  RecordingScheduler(sim::BatchScheduler& inner, GaScheduler& target)
      : inner_(inner), target_(target) {}

  [[nodiscard]] std::string name() const override {
    return inner_.name() + " (recording)";
  }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    inner_.schedule_into(context, out);
    target_.record_external(context, out);
  }

 private:
  sim::BatchScheduler& inner_;
  GaScheduler& target_;
};

}  // namespace gridsched::core
