// Generational GA loop with elitism and memoized, serial fitness
// evaluation. Shared by the classic GA baseline and the STGA (which differ
// only in how the initial population is built). Threads run whole
// campaign cells (exp/campaign), never the fitness of one population, so
// an evolve() is a pure function of its inputs and RNG.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ga_problem.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace gridsched::core {

struct GaParams {
  std::size_t population = 200;   ///< paper Table 1
  std::size_t generations = 100;  ///< paper Table 1
  double crossover_prob = 0.8;    ///< paper Table 1
  double mutation_prob = 0.01;    ///< paper Table 1 (per gene)
  std::size_t elite_count = 2;    ///< elitism (paper Section 3)
  /// Objective shaping (expected completion + flowtime; see decode_fitness).
  FitnessParams fitness;
  /// Cooperative cancellation (non-owning; may be null). evolve() polls
  /// once per generation and aborts with util::CancelledError — the
  /// per-cell wall-clock watchdog's hook into the GA hot loop. A
  /// completed evolve() is unaffected by the token's presence.
  const util::CancelToken* cancel = nullptr;
};

struct GaResult {
  Chromosome best;
  double best_fitness = 0.0;
  /// Best fitness seen up to and including each generation (length =
  /// generations + 1, entry 0 = initial population). Drives Fig. 7(b).
  std::vector<double> best_per_generation;
  /// Chromosomes that needed a score: the individuals of each generation
  /// that are neither carried elites nor duplicates of an earlier
  /// individual of the same generation. Without memoization this would be
  /// population * (generations + 1); elites carry their fitness across
  /// generations and duplicate children reuse an identical chromosome's
  /// score, so evaluations + memo_hits <= population * (generations + 1).
  std::uint64_t evaluations = 0;
  /// Fitness lookups served without a decode (elite carry-over is not
  /// counted here: carried elites are simply never re-enqueued).
  std::uint64_t memo_hits = 0;
  /// Evaluations that actually ran a decode (<= evaluations): the rest
  /// took the score of an identical chromosome of the previous generation.
  std::uint64_t decodes = 0;
};

/// Per-generation instrumentation row of one evolve() run.
struct GaGenerationProfile {
  double wall_ms = 0.0;          ///< host wall time (non-deterministic)
  std::uint64_t evaluations = 0; ///< chromosomes needing a score (GaResult)
  std::uint64_t memo_hits = 0;   ///< memo lookups served this generation
  std::uint64_t decodes = 0;     ///< evaluations that ran a decode
  double best = 0.0;             ///< best fitness so far (== best series)
  double mean = 0.0;             ///< mean population fitness
};

/// Optional convergence profile: one entry per fitness evaluation round
/// (generations + 1; entry 0 covers the initial population). Sums of the
/// per-generation evaluations/memo_hits/decodes equal the GaResult totals.
/// Collecting a profile must not change the GaResult — the profile only
/// reads state the engine already computes (plus one mean reduction).
struct GaProfile {
  std::vector<GaGenerationProfile> generations;
  double total_wall_ms = 0.0;  ///< wall time of the whole evolve() call
};

/// Run the GA. `initial` chromosomes seed the population (truncated or
/// topped up with random feasible chromosomes to `params.population`).
/// `profile`, when non-null, receives the per-generation convergence
/// profile (appending nothing to the result itself).
GaResult evolve(const GaProblem& problem, std::vector<Chromosome> initial,
                const GaParams& params, util::Rng& rng,
                GaProfile* profile = nullptr);

}  // namespace gridsched::core
