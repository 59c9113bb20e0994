// Regression suite for the DecodeScratch fitness fast path (PR 2): the
// scratch-based decode must be bit-identical to the retained reference
// implementation across every registry scenario, and its steady state must
// perform zero heap allocations (counted by replacing global new/delete).
#include "core/ga_problem.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/ga_engine.hpp"
#include "core/operators.hpp"
#include "decode_harness.hpp"  // counting allocator + scenario_batch
#include "util/rng.hpp"

namespace gridsched::core {
namespace {

using bench::allocation_count;
using bench::scenario_batch;

static_assert(noexcept(decode_fitness(
    std::declval<const GaProblem&>(), std::declval<const Chromosome&>(),
    std::declval<const FitnessParams&>(), std::declval<DecodeScratch&>())));
static_assert(noexcept(batch_makespan(std::declval<const GaProblem&>(),
                                      std::declval<const Chromosome&>(),
                                      std::declval<DecodeScratch&>())));
static_assert(noexcept(decode_order_into(std::declval<DecodeScratch&>(),
                                         std::declval<const GaProblem&>(),
                                         std::declval<const Chromosome&>())));

TEST(DecodeFastPath, BitIdenticalToReferenceAcrossRegistry) {
  const FitnessParams params{0.6, 2.0};
  for (const std::string& name : exp::scenario_names()) {
    for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
      const auto context = scenario_batch(name, 24, seed);
      const GaProblem problem =
          build_problem(context, security::RiskPolicy::risky());
      if (problem.n_jobs() == 0) continue;
      DecodeScratch scratch;
      scratch.bind(problem);
      util::Rng rng(seed * 977);
      for (int trial = 0; trial < 4; ++trial) {
        const Chromosome chromosome = random_chromosome(problem, rng);
        const double ref_fitness =
            decode_fitness_reference(problem, chromosome, params);
        const double fast_fitness =
            decode_fitness(problem, chromosome, params, scratch);
        EXPECT_EQ(ref_fitness, fast_fitness)
            << name << " seed " << seed << " trial " << trial;
        EXPECT_EQ(batch_makespan_reference(problem, chromosome),
                  batch_makespan(problem, chromosome, scratch))
            << name << " seed " << seed << " trial " << trial;
        const auto ref_order = decode_order_reference(problem, chromosome);
        const auto fast_order = decode_order_into(scratch, problem, chromosome);
        ASSERT_EQ(ref_order.size(), fast_order.size());
        for (std::size_t i = 0; i < ref_order.size(); ++i) {
          EXPECT_EQ(ref_order[i], fast_order[i]) << name << " position " << i;
        }
        // The validating public entry points ride the same fast path.
        EXPECT_EQ(ref_fitness, decode_fitness(problem, chromosome, params));
      }
    }
  }
}

TEST(DecodeFastPath, SteadyStateIsAllocationFree) {
  const auto context = scenario_batch("synth-inconsistent-hihi", 64, 3);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  const FitnessParams params{0.6, 2.0};
  util::Rng rng(17);
  std::vector<Chromosome> chromosomes;
  for (int i = 0; i < 32; ++i) {
    chromosomes.push_back(random_chromosome(problem, rng));
  }
  DecodeScratch scratch;
  scratch.bind(problem);
  decode_fitness(problem, chromosomes[0], params, scratch);  // warm buffers

  const std::uint64_t before = allocation_count();
  double sink = 0.0;
  for (const Chromosome& chromosome : chromosomes) {
    sink += decode_fitness(problem, chromosome, params, scratch);
    sink += batch_makespan(problem, chromosome, scratch);
    sink += static_cast<double>(
        decode_order_into(scratch, problem, chromosome).front());
  }
  EXPECT_EQ(allocation_count(), before) << "fast-path decode allocated";
  EXPECT_GT(sink, 0.0);
}

TEST(DecodeFastPath, ReferenceDecodeAllocatesManyTimesMore) {
  const auto context = scenario_batch("synth-consistent-lolo", 64, 4);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  util::Rng rng(5);
  const Chromosome chromosome = random_chromosome(problem, rng);
  const std::uint64_t before = allocation_count();
  decode_fitness_reference(problem, chromosome, {0.6, 2.0});
  const std::uint64_t reference_allocations = allocation_count() - before;
  // The ISSUE target is >= 5x fewer allocations; the fast path does zero,
  // so the reference must do at least 5 for the ratio to be meaningful.
  EXPECT_GE(reference_allocations, 5u);
}

TEST(DecodeFastPath, RebindingToAnotherProblemIsCorrect) {
  DecodeScratch scratch;
  const FitnessParams params{0.6, 2.0};
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    for (const std::string& name :
         {std::string("synth-consistent-hihi"), std::string("psa")}) {
      const auto context = scenario_batch(name, 16, seed);
      const GaProblem problem =
          build_problem(context, security::RiskPolicy::risky());
      if (problem.n_jobs() == 0) continue;
      scratch.bind(problem);
      util::Rng rng(seed + 99);
      const Chromosome chromosome = random_chromosome(problem, rng);
      EXPECT_EQ(decode_fitness_reference(problem, chromosome, params),
                decode_fitness(problem, chromosome, params, scratch));
    }
  }
}

TEST(EvolveMemo, ElitesAreNeverReDecoded) {
  const auto context = scenario_batch("synth-consistent-hihi", 16, 7);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  GaParams params;
  params.population = 30;
  params.generations = 20;
  params.elite_count = 2;
  util::Rng rng(8);
  const GaResult result = evolve(problem, {}, params, rng);
  // Elites carry their fitness: at most population fresh decodes in the
  // initial generation and population - elites per later generation.
  EXPECT_LE(result.evaluations,
            params.population +
                params.generations * (params.population - params.elite_count));
  // Every individual is decoded, memoized, or a carried elite — exactly.
  EXPECT_EQ(result.evaluations + result.memo_hits,
            params.population * (params.generations + 1) -
                params.generations * params.elite_count);
}

TEST(EvolveMemo, MemoizationDoesNotChangeTheResult) {
  // Same seed twice must stay deterministic with memoization and carried
  // elite fitness in play.
  const auto context = scenario_batch("synth-inconsistent-lolo", 12, 9);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  GaParams params;
  params.population = 24;
  params.generations = 15;
  auto run = [&] {
    util::Rng rng(13);
    return evolve(problem, {}, params, rng);
  };
  const GaResult a = run();
  const GaResult b = run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_per_generation, b.best_per_generation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
}

/// Heap allocations made by one serial evolve() of `problem` at the given
/// generation count.
std::uint64_t evolve_allocations(const GaProblem& problem, GaParams params,
                                 std::size_t generations) {
  params.generations = generations;
  util::Rng rng(21);
  const std::uint64_t before = allocation_count();
  const GaResult result = evolve(problem, {}, params, rng);
  const std::uint64_t allocations = allocation_count() - before;
  EXPECT_EQ(result.best_per_generation.size(), generations + 1);
  return allocations;
}

TEST(EvolveMemo, SteadyStateGenerationsAreAllocationFree) {
  // The paper's batch shape on the NAS testbed: 17 jobs over 4 x 16-node
  // and 8 x 8-node sites. Every allocation must happen while evolve() sets
  // up; a longer run may not make a single extra one.
  const auto context = scenario_batch("nas", 17, 3);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_EQ(problem.n_jobs(), 17u);
  ASSERT_EQ(problem.n_sites(), 12u);
  GaParams params;
  params.population = 201;  // odd: the spare-child path runs
  EXPECT_EQ(evolve_allocations(problem, params, 5),
            evolve_allocations(problem, params, 60));

  // Two-site domains (each job's first two admissible sites) flood the
  // population with duplicates, so memo probes run into occupied slots
  // and chain.
  GaProblem crowded = problem;
  for (auto& domain : crowded.domains) {
    ASSERT_GE(domain.size(), 2u);
    domain.resize(2);
  }
  params.population = 200;
  EXPECT_EQ(evolve_allocations(crowded, params, 5),
            evolve_allocations(crowded, params, 60));
  util::Rng rng(21);
  params.generations = 60;
  const GaResult result = evolve(crowded, {}, params, rng);
  EXPECT_GT(result.memo_hits, 0u);  // the probes did find duplicates
}

}  // namespace
}  // namespace gridsched::core
