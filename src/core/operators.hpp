// Genetic operators (paper Section 3): value-based roulette-wheel
// selection, single-point crossover, per-gene domain mutation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ga_problem.hpp"
#include "util/rng.hpp"

namespace gridsched::core {

/// Uniformly random feasible chromosome.
Chromosome random_chromosome(const GaProblem& problem, util::Rng& rng);

/// Roulette wheel for a minimisation objective, built once per generation:
/// each candidate's share is (worst - fitness) plus a 10% floor so the
/// worst candidate keeps a small non-zero probability. rebuild() computes
/// the prefix sums in O(n); select() is then an O(log n) binary search
/// instead of the old per-call O(n) scan that recomputed worst/total for
/// every draw. The wheel shares are identical to roulette_select's.
class RouletteWheel {
 public:
  /// Recompute the wheel from a generation's fitness values. Throws
  /// std::invalid_argument when `fitness` is empty. Allocation-free once
  /// the prefix buffer has grown to the population size.
  void rebuild(std::span<const double> fitness);

  /// Draw one index (one rng.uniform() call, as before).
  [[nodiscard]] std::size_t select(util::Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::vector<double> prefix_;  ///< cumulative wheel shares
  std::size_t n_ = 0;
  bool uniform_ = false;        ///< all fitness equal: uniform selection
};

/// One-shot roulette selection (rebuild + select). The GA engine keeps a
/// RouletteWheel per generation instead; this remains for tests and
/// call sites that select once.
std::size_t roulette_select(std::span<const double> fitness, util::Rng& rng);

/// Single-point crossover: swap the tails of a and b after a random cut in
/// [1, len-1]. No-op for chromosomes shorter than 2 genes. Genes keep their
/// positions, so feasibility is preserved.
void crossover_one_point(Chromosome& a, Chromosome& b, util::Rng& rng);

/// Mutate each gene with probability `per_gene` to a random (possibly
/// different) site from the job's domain.
void mutate(Chromosome& chromosome, const GaProblem& problem, double per_gene,
            util::Rng& rng);

/// Clamp every gene into its job's domain, replacing foreign genes with a
/// random domain member. Used to adapt historical chromosomes.
void repair(Chromosome& chromosome, const GaProblem& problem, util::Rng& rng);

/// Nearest-neighbour resampling of a gene array to a new length (used when
/// a historical batch had a different size; README "Model parameters").
Chromosome resample_genes(const Chromosome& source, std::size_t target_size);

}  // namespace gridsched::core
