#include "core/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/ga_problem.hpp"

namespace gridsched::core {
namespace {

/// Minimal hand-built problem: n jobs over the given per-job domains.
GaProblem toy_problem(std::vector<std::vector<sim::SiteId>> domains,
                      std::size_t n_sites = 4) {
  GaProblem problem;
  problem.now = 0.0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    problem.sites.push_back({static_cast<sim::SiteId>(s), 1u, 1.0, 0.8});
    problem.avail.emplace_back(1u, 0.0);
  }
  for (std::size_t j = 0; j < domains.size(); ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = 10.0 + static_cast<double>(j);
    job.nodes = 1;
    job.demand = 0.7;
    problem.jobs.push_back(job);
    problem.batch_index.push_back(j);
  }
  problem.domains = std::move(domains);
  problem.exec.assign(problem.n_jobs() * n_sites, 1.0);
  problem.pfail.assign(problem.n_jobs() * n_sites, 0.0);
  return problem;
}

TEST(RandomChromosome, RespectsDomains) {
  const auto problem = toy_problem({{0, 2}, {1}, {0, 1, 2, 3}});
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Chromosome chromosome = random_chromosome(problem, rng);
    ASSERT_EQ(chromosome.size(), 3u);
    EXPECT_TRUE(is_feasible(problem, chromosome));
    EXPECT_EQ(chromosome[1], 1u);  // singleton domain is forced
  }
}

TEST(RouletteSelect, RejectsEmpty) {
  util::Rng rng(1);
  EXPECT_THROW(roulette_select({}, rng), std::invalid_argument);
}

TEST(RouletteSelect, UniformWhenAllEqual) {
  util::Rng rng(2);
  const std::vector<double> fitness = {5.0, 5.0, 5.0, 5.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 8000; ++i) ++counts[roulette_select(fitness, rng)];
  for (const auto& [index, count] : counts) {
    EXPECT_NEAR(count, 2000, 250) << "index " << index;
  }
}

TEST(RouletteSelect, PrefersLowerFitness) {
  util::Rng rng(3);
  // Minimisation: 1.0 is much better than 100.0.
  const std::vector<double> fitness = {1.0, 100.0};
  int best = 0;
  for (int i = 0; i < 10000; ++i) {
    if (roulette_select(fitness, rng) == 0) ++best;
  }
  EXPECT_GT(best, 8000);
  EXPECT_LT(best, 10000);  // the floor keeps the worst selectable
}

TEST(RouletteSelect, MiddleCandidateGetsProportionalShare) {
  util::Rng rng(4);
  const std::vector<double> fitness = {0.0, 5.0, 10.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[roulette_select(fitness, rng)];
  // Wheel shares with a 10% floor: (10 + 1) : (5 + 1) : (0 + 1) = 11:6:1.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 11.0 / 6.0, 0.3);
}

TEST(RouletteWheel, RejectsEmpty) {
  RouletteWheel wheel;
  EXPECT_THROW(wheel.rebuild({}), std::invalid_argument);
}

TEST(RouletteWheel, UniformWhenAllEqual) {
  util::Rng rng(12);
  RouletteWheel wheel;
  wheel.rebuild(std::vector<double>{3.0, 3.0, 3.0});
  ASSERT_EQ(wheel.size(), 3u);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 6000; ++i) ++counts[wheel.select(rng)];
  for (const auto& [index, count] : counts) {
    EXPECT_NEAR(count, 2000, 250) << "index " << index;
  }
}

TEST(RouletteWheel, SharesMatchTheRouletteSelectWheel) {
  // Same 11:6:1 shares as roulette_select (10% floor on the range), now
  // selected via prefix-sum binary search.
  util::Rng rng(13);
  RouletteWheel wheel;
  wheel.rebuild(std::vector<double>{0.0, 5.0, 10.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[wheel.select(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 11.0 / 6.0, 0.3);
  EXPECT_GT(counts[2], 0);  // the floor keeps the worst selectable
}

TEST(RouletteWheel, SelectIsTheLowerBoundOfTheTicket) {
  // The wheel's search must return std::lower_bound's index over the same
  // prefix sums for every ticket, at even and odd sizes and with ties.
  util::Rng fitness_rng(15);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 200u, 201u}) {
    std::vector<double> fitness(n);
    for (double& f : fitness) {
      f = static_cast<double>(fitness_rng.index(20));
    }
    fitness[0] = 25.0;  // never all equal: the prefix-sum path runs
    const double worst = *std::max_element(fitness.begin(), fitness.end());
    const double floor =
        0.1 * (worst - *std::min_element(fitness.begin(), fitness.end()));
    std::vector<double> prefix;
    double total = 0.0;
    for (const double f : fitness) {
      total += (worst - f) + floor;
      prefix.push_back(total);
    }
    RouletteWheel wheel;
    wheel.rebuild(fitness);
    util::Rng rng(n);
    for (int draw = 0; draw < 500; ++draw) {
      util::Rng ticket_rng = rng;
      const double ticket = ticket_rng.uniform() * prefix.back();
      const auto expected = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::lower_bound(prefix.begin(), prefix.end(), ticket) -
              prefix.begin()),
          n - 1);
      ASSERT_EQ(wheel.select(rng), expected) << "n " << n << " draw " << draw;
    }
  }
}

TEST(RouletteWheel, RebuildResizesAcrossGenerations) {
  util::Rng rng(14);
  RouletteWheel wheel;
  wheel.rebuild(std::vector<double>{1.0, 2.0});
  EXPECT_LT(wheel.select(rng), 2u);
  wheel.rebuild(std::vector<double>{4.0, 1.0, 2.0, 3.0, 9.0});
  EXPECT_EQ(wheel.size(), 5u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(wheel.select(rng), 5u);
}

TEST(Crossover, LengthMismatchThrows) {
  util::Rng rng(5);
  Chromosome a = {0, 1};
  Chromosome b = {0};
  EXPECT_THROW(crossover_one_point(a, b, rng), std::invalid_argument);
}

TEST(Crossover, SingleGeneIsNoop) {
  util::Rng rng(5);
  Chromosome a = {3};
  Chromosome b = {1};
  crossover_one_point(a, b, rng);
  EXPECT_EQ(a, Chromosome{3});
  EXPECT_EQ(b, Chromosome{1});
}

TEST(Crossover, ChildrenAreTailSwaps) {
  util::Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const Chromosome parent_a = {0, 0, 0, 0, 0, 0};
    const Chromosome parent_b = {1, 1, 1, 1, 1, 1};
    Chromosome a = parent_a;
    Chromosome b = parent_b;
    crossover_one_point(a, b, rng);
    // a must be 0^cut 1^(n-cut) for some cut in [1, n-1]; b the complement.
    std::size_t cut = 0;
    while (cut < a.size() && a[cut] == 0) ++cut;
    ASSERT_GE(cut, 1u);
    ASSERT_LE(cut, a.size() - 1);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], i < cut ? 0u : 1u);
      EXPECT_EQ(b[i], i < cut ? 1u : 0u);
    }
  }
}

TEST(Crossover, PreservesPositionalGenePool) {
  util::Rng rng(7);
  Chromosome a = {2, 3, 0, 1, 2};
  Chromosome b = {1, 0, 3, 2, 0};
  const Chromosome old_a = a;
  const Chromosome old_b = b;
  crossover_one_point(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE((a[i] == old_a[i] && b[i] == old_b[i]) ||
                (a[i] == old_b[i] && b[i] == old_a[i]));
  }
}

TEST(Mutate, ZeroRateIsNoop) {
  const auto problem = toy_problem({{0, 1, 2, 3}, {0, 1, 2, 3}});
  util::Rng rng(8);
  Chromosome chromosome = {0, 3};
  mutate(chromosome, problem, 0.0, rng);
  EXPECT_EQ(chromosome, (Chromosome{0, 3}));
}

TEST(Mutate, FullRateStaysInDomain) {
  const auto problem = toy_problem({{1, 2}, {0}, {2, 3}});
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    Chromosome chromosome = {1, 0, 2};
    mutate(chromosome, problem, 1.0, rng);
    EXPECT_TRUE(is_feasible(problem, chromosome));
  }
}

TEST(Mutate, EventuallyChangesGenes) {
  const auto problem = toy_problem({{0, 1, 2, 3}});
  util::Rng rng(10);
  Chromosome chromosome = {0};
  bool changed = false;
  for (int trial = 0; trial < 200 && !changed; ++trial) {
    mutate(chromosome, problem, 1.0, rng);
    changed = chromosome[0] != 0;
  }
  EXPECT_TRUE(changed);
}

TEST(Repair, FixesForeignGenesOnly) {
  const auto problem = toy_problem({{0, 1}, {2}, {1, 3}});
  util::Rng rng(11);
  Chromosome chromosome = {0, 0, 2};  // genes 1 and 2 are out of domain
  repair(chromosome, problem, rng);
  EXPECT_TRUE(is_feasible(problem, chromosome));
  EXPECT_EQ(chromosome[0], 0u);  // already valid: untouched
  EXPECT_EQ(chromosome[1], 2u);  // forced to the only member
}

TEST(ResampleGenes, IdentityWhenSameLength) {
  const Chromosome source = {4, 2, 7};
  EXPECT_EQ(resample_genes(source, 3), source);
}

TEST(ResampleGenes, UpsamplesByRepetition) {
  const Chromosome source = {1, 9};
  EXPECT_EQ(resample_genes(source, 4), (Chromosome{1, 1, 9, 9}));
}

TEST(ResampleGenes, DownsamplesKeepingEnds) {
  const Chromosome source = {5, 6, 7, 8};
  const Chromosome out = resample_genes(source, 2);
  EXPECT_EQ(out, (Chromosome{5, 7}));
}

TEST(ResampleGenes, EmptySourceThrows) {
  EXPECT_THROW(resample_genes({}, 3), std::invalid_argument);
}

TEST(ResampleGenes, ZeroTargetGivesEmpty) {
  EXPECT_TRUE(resample_genes({1, 2}, 0).empty());
}

}  // namespace
}  // namespace gridsched::core
