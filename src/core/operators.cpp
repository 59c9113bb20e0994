#include "core/operators.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsched::core {

Chromosome random_chromosome(const GaProblem& problem, util::Rng& rng) {
  Chromosome chromosome(problem.n_jobs());
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    const auto& domain = problem.domains[j];
    chromosome[j] = domain[rng.index(domain.size())];
  }
  return chromosome;
}

void RouletteWheel::rebuild(std::span<const double> fitness) {
  if (fitness.empty()) throw std::invalid_argument("roulette_select: empty");
  n_ = fitness.size();
  const auto [min_it, max_it] = std::minmax_element(fitness.begin(),
                                                    fitness.end());
  const double worst = *max_it;
  const double range = worst - *min_it;
  uniform_ = range <= 0.0;  // all equal: uniform selection
  if (uniform_) return;
  // Floor of 10% of the range keeps the worst individual selectable.
  const double floor = 0.1 * range;
  prefix_.resize(n_);
  double total = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    total += (worst - fitness[i]) + floor;
    prefix_[i] = total;
  }
}

std::size_t RouletteWheel::select(util::Rng& rng) const noexcept {
  if (uniform_) return rng.index(n_);
  const double ticket = rng.uniform() * prefix_[n_ - 1];
  // std::lower_bound's result without its data-dependent branch: each
  // halving step is a conditional move, which the random tickets would
  // otherwise mispredict about once per level.
  const double* base = prefix_.data();
  for (std::size_t len = n_; len > 1;) {
    const std::size_t half = len / 2;
    base = base[half] < ticket ? base + half : base;
    len -= half;
  }
  const auto index = static_cast<std::size_t>(base - prefix_.data()) +
                     static_cast<std::size_t>(*base < ticket);
  return std::min(index, n_ - 1);  // numeric edge
}

std::size_t roulette_select(std::span<const double> fitness, util::Rng& rng) {
  RouletteWheel wheel;
  wheel.rebuild(fitness);
  return wheel.select(rng);
}

void crossover_one_point(Chromosome& a, Chromosome& b, util::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("crossover: length mismatch");
  }
  if (a.size() < 2) return;
  const auto cut = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(a.size()) - 1));
  for (std::size_t i = cut; i < a.size(); ++i) std::swap(a[i], b[i]);
}

void mutate(Chromosome& chromosome, const GaProblem& problem, double per_gene,
            util::Rng& rng) {
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    if (!rng.bernoulli(per_gene)) continue;
    const auto& domain = problem.domains[j];
    chromosome[j] = domain[rng.index(domain.size())];
  }
}

void repair(Chromosome& chromosome, const GaProblem& problem, util::Rng& rng) {
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    const auto& domain = problem.domains[j];
    if (std::find(domain.begin(), domain.end(),
                  chromosome[j]) == domain.end()) {
      chromosome[j] = domain[rng.index(domain.size())];
    }
  }
}

Chromosome resample_genes(const Chromosome& source, std::size_t target_size) {
  if (source.empty())
    throw std::invalid_argument("resample_genes: empty source");
  Chromosome out(target_size);
  for (std::size_t i = 0; i < target_size; ++i) {
    out[i] = source[i * source.size() / std::max<std::size_t>(target_size, 1)];
  }
  return out;
}

}  // namespace gridsched::core
