#include "core/ga_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/operators.hpp"

namespace gridsched::core {

namespace {

constexpr double kUnknownFitness = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kNoAlias = std::numeric_limits<std::size_t>::max();

/// FNV-1a-style hash over the chromosome's genes, two 32-bit genes per
/// 64-bit round; keys the duplicate memos. A multiply only carries bits
/// upward, so the final fold mixes the odd genes' high-half bits into the
/// low bits that pick the memo slot. Collisions are harmless — the memos
/// verify gene-by-gene equality before reusing.
std::uint64_t chromosome_hash(const Chromosome& chromosome) noexcept {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = 14695981039346656037ULL;
  const std::size_t n = chromosome.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    hash ^= chromosome[i] | std::uint64_t{chromosome[i + 1]} << 32;
    hash *= kPrime;
  }
  if (i < n) {
    hash ^= chromosome[i];
    hash *= kPrime;
  }
  return hash ^ (hash >> 32);
}

/// Memoized fitness evaluation for one evolve() run. Owns one DecodeScratch
/// so the ~population x generations decodes reuse the same buffers (zero
/// steady-state allocations in the decode itself), and two duplicate
/// memos. The in-generation memo lets identical chromosomes —
/// elitism copies, crossover of converged parents — reuse one individual's
/// score instead of decoding again; the previous generation's memo lets a
/// chromosome that survived selection unchanged reuse last generation's
/// score. Fitness is a pure function of the chromosome, so memoization is
/// result-invariant.
///
/// Each memo is a flat open-addressing table (slot -> population index,
/// linear probing) sized once to a power of two >= 2 x population, so
/// evaluate() never allocates; the two tables and their hash arrays
/// swap roles after every call. Entries are always distinct chromosomes,
/// so a probe finds the one representative a chained bucket scan would:
/// the evaluation, memo-hit and decode counts do not depend on the table
/// layout.
class FitnessEvaluator {
 public:
  FitnessEvaluator(const GaProblem& problem, const GaParams& params)
      : problem_(problem), params_(params),
        slots_(std::bit_ceil(2 * params.population), kEmptySlot),
        previous_slots_(slots_.size(), kEmptySlot),
        hashes_(params.population),
        previous_hashes_(params.population),
        mask_(slots_.size() - 1) {
    scratch_.bind(problem);
    alias_.reserve(params.population);
    to_eval_.reserve(params.population);
  }

  /// Fill every NaN entry of `fitness` (parallel to `population`, which
  /// holds params.population chromosomes). Known entries — elites whose
  /// fitness was carried across the generation — are kept as-is and serve
  /// as memo sources for their duplicates. `previous` and
  /// `previous_fitness` must hold, unchanged, the population and scores of
  /// the previous call (on the first call the previous memo is empty, so
  /// neither is read).
  void evaluate(const std::vector<Chromosome>& population,
                std::vector<double>& fitness,
                const std::vector<Chromosome>& previous,
                const std::vector<double>& previous_fitness,
                GaResult& stats) {
    const std::size_t n = population.size();
    assert(n <= hashes_.size() && "evaluate: population outgrew the memo");
    alias_.assign(n, kNoAlias);
    to_eval_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    // GS-FASTPATH-BEGIN: the per-individual memo probes (GS-R01 no-alloc).
    for (std::size_t i = 0; i < n; ++i) {
      const Chromosome& chromosome = population[i];
      const std::uint64_t hash = chromosome_hash(chromosome);
      hashes_[i] = hash;
      const std::size_t slot =
          probe(slots_, hashes_, population, hash, chromosome);
      const std::size_t representative = slots_[slot];
      if (!std::isnan(fitness[i])) {  // carried elite: already scored
        if (representative == kNoAlias) slots_[slot] = i;
        continue;
      }
      if (representative != kNoAlias) {
        alias_[i] = representative;
        ++stats.memo_hits;
      } else {
        to_eval_.push_back(i);
        slots_[slot] = i;
      }
    }
    stats.evaluations += to_eval_.size();
    // A unique chromosome some individual of the previous generation also
    // held takes that score; only the rest are decoded.
    std::size_t kept = 0;
    for (const std::size_t i : to_eval_) {
      const std::size_t slot = probe(previous_slots_, previous_hashes_,
                                     previous, hashes_[i], population[i]);
      const std::size_t source = previous_slots_[slot];
      if (source != kEmptySlot) {
        fitness[i] = previous_fitness[source];
      } else {
        to_eval_[kept++] = i;
      }
    }
    to_eval_.resize(kept);
    // GS-FASTPATH-END
    stats.decodes += to_eval_.size();

    for (const std::size_t i : to_eval_) {
      fitness[i] =
          decode_fitness(problem_, population[i], params_.fitness, scratch_);
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (alias_[i] != kNoAlias) fitness[i] = fitness[alias_[i]];
    }
    // This generation's memo becomes the next call's previous-generation
    // memo; the caller keeps `population` and `fitness` intact until then.
    slots_.swap(previous_slots_);
    hashes_.swap(previous_hashes_);
  }

 private:
  static constexpr std::size_t kEmptySlot = kNoAlias;

  // GS-FASTPATH-BEGIN: the memo table probe (GS-R01 no-alloc).
  /// The slot of `slots` that holds `chromosome` (an index into
  /// `chromosomes`, whose hashes are `hashes`), or the empty slot where it
  /// would be inserted.
  std::size_t probe(std::span<const std::size_t> slots,
                    std::span<const std::uint64_t> hashes,
                    std::span<const Chromosome> chromosomes,
                    std::uint64_t hash,
                    const Chromosome& chromosome) const noexcept {
    std::size_t slot = static_cast<std::size_t>(hash) & mask_;
    for (; slots[slot] != kEmptySlot; slot = (slot + 1) & mask_) {
      const std::size_t j = slots[slot];
      if (hashes[j] == hash && chromosomes[j] == chromosome) break;
    }
    return slot;
  }
  // GS-FASTPATH-END

  const GaProblem& problem_;
  const GaParams& params_;
  DecodeScratch scratch_;
  std::vector<std::size_t> slots_;     ///< memo: population index or empty
  std::vector<std::size_t> previous_slots_;  ///< last generation's memo
  std::vector<std::uint64_t> hashes_;  ///< chromosome_hash per individual
  std::vector<std::uint64_t> previous_hashes_;  ///< last generation's
  std::size_t mask_;                   ///< slots_.size() - 1
  std::vector<std::size_t> alias_;   ///< duplicate -> representative index
  std::vector<std::size_t> to_eval_; ///< unique chromosomes needing a decode
};

}  // namespace

GaResult evolve(const GaProblem& problem, std::vector<Chromosome> initial,
                const GaParams& params, util::Rng& rng,
                GaProfile* profile) {
  if (problem.n_jobs() == 0) {
    throw std::invalid_argument("evolve: empty problem");
  }
  if (params.population == 0) {
    throw std::invalid_argument("evolve: population must be > 0");
  }

  std::vector<Chromosome> population = std::move(initial);
  // The only feasibility gate: operators preserve domain membership and
  // length, so the decode fast path below runs unvalidated and noexcept.
  for (Chromosome& chromosome : population) {
    if (chromosome.size() != problem.n_jobs() ||
        !is_feasible(problem, chromosome)) {
      throw std::invalid_argument("evolve: infeasible seed chromosome");
    }
  }
  if (population.size() > params.population) {
    population.resize(params.population);
  }
  while (population.size() < params.population) {
    population.push_back(random_chromosome(problem, rng));
  }

  // Profiling reads state the loop computes anyway (plus a mean reduction)
  // so a profiled run returns a bit-identical GaResult. Clocks only tick
  // when a profile was requested.
  using ProfileClock = std::chrono::steady_clock;
  const ProfileClock::time_point evolve_start =
      // NOLINTNEXTLINE(GS-R05): GaProfile wall ms is diagnostics-only
      profile != nullptr ? ProfileClock::now() : ProfileClock::time_point{};
  ProfileClock::time_point gen_start = evolve_start;
  std::uint64_t seen_evaluations = 0;
  std::uint64_t seen_memo_hits = 0;
  std::uint64_t seen_decodes = 0;
  if (profile != nullptr) {
    profile->generations.clear();
    profile->generations.reserve(params.generations + 1);
    profile->total_wall_ms = 0.0;
  }

  // Generation buffers ping-pong with the population and chromosomes are
  // copy-assigned in place, so steady-state generations reuse every gene
  // buffer instead of allocating ~population vectors per generation. After
  // each swap `next` still holds the previous generation, which the
  // evaluator's previous-generation memo reads.
  GaResult result;
  FitnessEvaluator evaluator(problem, params);
  std::vector<double> fitness(population.size(), kUnknownFitness);
  std::vector<Chromosome> next(params.population);
  std::vector<double> next_fitness(params.population);
  evaluator.evaluate(population, fitness, next, next_fitness, result);

  result.best_per_generation.reserve(params.generations + 1);
  auto record_best = [&] {
    const std::size_t arg = static_cast<std::size_t>(
        std::min_element(fitness.begin(), fitness.end()) - fitness.begin());
    if (result.best.empty() || fitness[arg] < result.best_fitness) {
      result.best = population[arg];
      result.best_fitness = fitness[arg];
    }
    result.best_per_generation.push_back(result.best_fitness);
  };
  auto record_profile = [&] {
    if (profile == nullptr) return;
    // NOLINTNEXTLINE(GS-R05): GaProfile wall ms is diagnostics-only
    const ProfileClock::time_point now = ProfileClock::now();
    GaGenerationProfile row;
    row.wall_ms =
        std::chrono::duration<double, std::milli>(now - gen_start).count();
    gen_start = now;
    row.evaluations = result.evaluations - seen_evaluations;
    row.memo_hits = result.memo_hits - seen_memo_hits;
    row.decodes = result.decodes - seen_decodes;
    seen_evaluations = result.evaluations;
    seen_memo_hits = result.memo_hits;
    seen_decodes = result.decodes;
    row.best = result.best_fitness;
    double sum = 0.0;
    for (const double f : fitness) sum += f;
    row.mean = sum / static_cast<double>(fitness.size());
    profile->generations.push_back(row);
  };
  record_best();
  record_profile();

  // The RNG draw order matches the push_back formulation exactly (both
  // parents are always drawn and both children mutated, even when the
  // second child is discarded on an odd population boundary).
  RouletteWheel wheel;
  std::vector<std::size_t> elite_order(population.size());
  Chromosome spare;
  for (std::size_t gen = 0; gen < params.generations; ++gen) {
    // Watchdog checkpoint: one poll per generation bounds how long an
    // over-budget cell can keep evolving before it surfaces as timed out.
    if (params.cancel != nullptr) params.cancel->check("GA generation");
    std::size_t filled = 0;

    // Elitism: carry the best individuals over unchanged, fitness included,
    // so they are never re-decoded.
    const std::size_t elites = std::min(params.elite_count, population.size());
    if (elites > 0) {
      std::iota(elite_order.begin(), elite_order.end(), std::size_t{0});
      std::partial_sort(elite_order.begin(),
                        elite_order.begin() +
                            static_cast<std::ptrdiff_t>(elites),
                        elite_order.end(), [&](std::size_t a, std::size_t b) {
                          return fitness[a] < fitness[b];
                        });
      for (std::size_t e = 0; e < elites; ++e) {
        next[filled] = population[elite_order[e]];
        next_fitness[filled] = fitness[elite_order[e]];
        ++filled;
      }
    }

    wheel.rebuild(fitness);
    while (filled < params.population) {
      Chromosome& child_a = next[filled];
      Chromosome& child_b =
          filled + 1 < params.population ? next[filled + 1] : spare;
      child_a = population[wheel.select(rng)];
      child_b = population[wheel.select(rng)];
      if (rng.bernoulli(params.crossover_prob)) {
        crossover_one_point(child_a, child_b, rng);
      }
      mutate(child_a, problem, params.mutation_prob, rng);
      mutate(child_b, problem, params.mutation_prob, rng);
      next_fitness[filled] = kUnknownFitness;
      ++filled;
      if (filled < params.population) {
        next_fitness[filled] = kUnknownFitness;
        ++filled;
      }
    }

    population.swap(next);
    fitness.swap(next_fitness);
    evaluator.evaluate(population, fitness, next, next_fitness, result);
    record_best();
    record_profile();
  }
  if (profile != nullptr) {
    profile->total_wall_ms = std::chrono::duration<double, std::milli>(
                                 // NOLINTNEXTLINE(GS-R05): profile-only
                                 ProfileClock::now() - evolve_start)
                                 .count();
  }
  return result;
}

}  // namespace gridsched::core
