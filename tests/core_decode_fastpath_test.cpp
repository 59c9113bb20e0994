// Regression suite for the DecodeScratch fitness fast path: the
// scratch-based decode must be bit-identical to the retained reference
// implementation across every registry scenario, and its steady state must
// perform zero heap allocations (counted by replacing global new/delete).
#include "core/ga_problem.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

/// A hand-built problem whose exec cells take only a few values, so equal
/// cells recur across jobs and sites, and whose every job has two
/// infinite (inadmissible) cells outside its domain. `all_equal` makes
/// every finite cell 1.0.
GaProblem tied_problem(std::size_t n_jobs, std::size_t n_sites,
                       std::uint64_t seed, bool all_equal) {
  util::Rng rng(seed);
  GaProblem problem;
  problem.now = 10.0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    const auto nodes = static_cast<unsigned>(4 + s % 3);
    problem.sites.push_back(
        {static_cast<sim::SiteId>(s), nodes, 1.0, 1.0});
    problem.avail.emplace_back(nodes, static_cast<double>(s % 2));
  }
  problem.exec.assign(n_jobs * n_sites, 0.0);
  problem.pfail.assign(n_jobs * n_sites, 0.0);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.nodes = static_cast<unsigned>(1 + rng.index(4));
    problem.jobs.push_back(job);
    problem.batch_index.push_back(j);
    const std::size_t blocked = rng.index(n_sites);
    std::vector<sim::SiteId> domain;
    for (std::size_t s = 0; s < n_sites; ++s) {
      const std::size_t cell = j * n_sites + s;
      if (s == blocked || s == (blocked + 1) % n_sites) {
        problem.exec[cell] = std::numeric_limits<double>::infinity();
        continue;
      }
      problem.exec[cell] =
          all_equal ? 1.0 : static_cast<double>(1 + rng.index(3));
      problem.pfail[cell] = 0.25 * static_cast<double>(rng.index(3));
      domain.push_back(static_cast<sim::SiteId>(s));
    }
    problem.domains.push_back(std::move(domain));
  }
  return problem;
}

TEST(DecodeFastPath, OrderMatchesReferenceWithTiesAndWideBatches) {
  // jobs x sites from 60 to 2080 bits: the gene bitmap crosses 64-bit word
  // boundaries at every shape but 5 x 12, and 64/65/130 jobs exceed what
  // one word of genes could hold.
  const FitnessParams params{0.6, 2.0};
  DecodeScratch scratch;  // one scratch rebinds across every shape
  for (const std::size_t n_sites : {12u, 16u}) {
    for (const std::size_t n_jobs : {5u, 63u, 64u, 65u, 130u}) {
      for (const bool all_equal : {false, true}) {
        const GaProblem problem =
            tied_problem(n_jobs, n_sites, n_jobs * 31 + n_sites, all_equal);
        scratch.bind(problem);
        util::Rng rng(n_jobs + n_sites);
        for (int trial = 0; trial < 6; ++trial) {
          const Chromosome chromosome = random_chromosome(problem, rng);
          const std::string where =
              std::to_string(n_jobs) + "x" + std::to_string(n_sites) +
              (all_equal ? " all-equal" : "") + " trial " +
              std::to_string(trial);
          const auto ref_order = decode_order_reference(problem, chromosome);
          const auto fast_order =
              decode_order_into(scratch, problem, chromosome);
          ASSERT_EQ(std::vector<std::size_t>(fast_order.begin(),
                                             fast_order.end()),
                    ref_order)
              << where;
          EXPECT_EQ(decode_fitness(problem, chromosome, params, scratch),
                    decode_fitness_reference(problem, chromosome, params))
              << where;
          EXPECT_EQ(batch_makespan(problem, chromosome, scratch),
                    batch_makespan_reference(problem, chromosome))
              << where;
        }
      }
    }
  }
}

TEST(DecodeFastPath, SteadyStateIsAllocationFree) {
  // The bitmap order (heterogeneous synth ETC) and the per-batch order
  // (uniform-speed NAS sites).
  for (const std::string& name :
       {std::string("synth-inconsistent-hihi"), std::string("nas")}) {
    const auto context = scenario_batch(name, 64, 3);
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
    EXPECT_EQ(allocation_count(), before)
        << name << ": fast-path decode allocated";
    EXPECT_GT(sink, 0.0) << name;
  }
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
    // nas binds the per-batch order, the others the rank bitmap, so the
    // one scratch switches between the two in both directions.
    for (const std::string& name :
         {std::string("synth-consistent-hihi"), std::string("psa"),
          std::string("nas")}) {
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

/// A hand-built problem over sites of the given node counts, in order, so
/// the arena holds segments whose lanes round up (n % 4 != 0) or span
/// several 4-lane steps (n > 16). Every committed profile, exec cell and
/// `now` is a whole number, so free times tie each other and reserve ends
/// land exactly on later committed entries.
GaProblem odd_site_problem(const std::vector<unsigned>& site_nodes,
                           std::size_t n_jobs, sim::Time now,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  GaProblem problem;
  problem.now = now;
  const std::size_t n_sites = site_nodes.size();
  for (std::size_t s = 0; s < n_sites; ++s) {
    const unsigned nodes = site_nodes[s];
    problem.sites.push_back(
        {static_cast<sim::SiteId>(s), nodes, 1.0, 1.0});
    sim::NodeAvailability profile(nodes, 2.0);
    for (int r = 0; r < 6; ++r) {
      const auto k = static_cast<unsigned>(1 + rng.index(nodes));
      const auto exec = static_cast<double>(1 + rng.index(5));
      const sim::Time end = profile.reserve(k, exec, 2.0).end;
      if (r % 3 == 2) profile.release(1, end, end - 1.0);
    }
    problem.avail.push_back(std::move(profile));
  }
  problem.exec.assign(n_jobs * n_sites, 0.0);
  problem.pfail.assign(n_jobs * n_sites, 0.0);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    // Up to the widest site, so some jobs fill a whole segment.
    job.nodes = static_cast<unsigned>(1 + rng.index(j % 4 == 0 ? 33 : 4));
    problem.jobs.push_back(job);
    problem.batch_index.push_back(j);
    std::vector<sim::SiteId> domain;
    for (std::size_t s = 0; s < n_sites; ++s) {
      const std::size_t cell = j * n_sites + s;
      if (job.nodes > site_nodes[s]) {
        problem.exec[cell] = std::numeric_limits<double>::infinity();
        continue;
      }
      problem.exec[cell] = static_cast<double>(1 + rng.index(6));
      problem.pfail[cell] = 0.125 * static_cast<double>(rng.index(3));
      domain.push_back(static_cast<sim::SiteId>(s));
    }
    problem.domains.push_back(std::move(domain));
  }
  return problem;
}

TEST(DecodeFastPath, PaddedReserveMatchesReferenceOnOddSites) {
  // Registry sites have 1, 4, 8 or 16 nodes; these add partial 4-lane
  // steps and segments past 16. `now` sits below every committed free
  // time (all >= 2), inside the profiles, and above all of them.
  const std::vector<unsigned> site_nodes = {1, 2, 3, 5, 7, 9, 16, 17, 33};
  const FitnessParams params{0.6, 2.0};
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  DecodeScratch scratch;
  for (const sim::Time now : {0.0, 4.0, 100.0}) {
    for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
      const GaProblem problem = odd_site_problem(site_nodes, 48, now, seed);
      scratch.bind(problem);
      util::Rng rng(seed * 13);
      for (int trial = 0; trial < 12; ++trial) {
        const Chromosome chromosome = random_chromosome(problem, rng);
        const std::string where = "now " + std::to_string(now) + " seed " +
                                  std::to_string(seed) + " trial " +
                                  std::to_string(trial);
        EXPECT_EQ(bits(decode_fitness(problem, chromosome, params, scratch)),
                  bits(decode_fitness_reference(problem, chromosome, params)))
            << where;
        EXPECT_EQ(bits(batch_makespan(problem, chromosome, scratch)),
                  bits(batch_makespan_reference(problem, chromosome)))
            << where;
        const auto fast_order =
            decode_order_into(scratch, problem, chromosome);
        EXPECT_EQ(
            std::vector<std::size_t>(fast_order.begin(), fast_order.end()),
            decode_order_reference(problem, chromosome))
            << where;
      }
    }
  }
}

/// A hand-built round on a uniform-speed grid: every site runs at speed
/// 1.0, work takes three values so exec ties across jobs, sites 2 and 5 are
/// masked down, sites of 1 node leave the 2-node jobs fewer sites, and the
/// secure policy keeps each job's domain to the sites trusted enough for
/// it. Site 6 (16 nodes, fully trusted, up) keeps every domain non-empty.
sim::SchedulerContext uniform_speed_context(std::size_t n_jobs,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  sim::SchedulerContext context;
  context.now = 50.0;
  const std::vector<unsigned> site_nodes = {1, 4, 2, 8, 1, 4, 16, 2};
  for (std::size_t s = 0; s < site_nodes.size(); ++s) {
    const double security = s == 6 ? 1.0 : rng.uniform(0.4, 1.0);
    context.sites.push_back(
        {static_cast<sim::SiteId>(s), site_nodes[s], 1.0, security});
    sim::NodeAvailability avail(site_nodes[s], 0.0);
    avail.reserve(1, static_cast<double>(rng.index(4)) * 25.0, 0.0);
    context.avail.push_back(avail);
    context.site_up.push_back(s == 2 || s == 5 ? 0 : 1);
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = 100.0 * static_cast<double>(1 + rng.index(3));
    job.nodes = j % 5 == 0 ? 2u : 1u;
    job.demand = rng.uniform(0.6, 0.9);
    context.jobs.push_back(job);
  }
  return context;
}

/// Every order and score the scratch path gives `problem` equals the
/// reference's, bit for bit, over random feasible chromosomes.
void expect_decodes_match_reference(const GaProblem& problem,
                                    DecodeScratch& scratch,
                                    std::uint64_t seed,
                                    const std::string& where) {
  const FitnessParams params{0.6, 2.0};
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  util::Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    const Chromosome chromosome = random_chromosome(problem, rng);
    const auto fast_order = decode_order_into(scratch, problem, chromosome);
    EXPECT_EQ(std::vector<std::size_t>(fast_order.begin(), fast_order.end()),
              decode_order_reference(problem, chromosome))
        << where << " trial " << trial;
    EXPECT_EQ(bits(decode_fitness(problem, chromosome, params, scratch)),
              bits(decode_fitness_reference(problem, chromosome, params)))
        << where << " trial " << trial;
    EXPECT_EQ(bits(batch_makespan(problem, chromosome, scratch)),
              bits(batch_makespan_reference(problem, chromosome)))
        << where << " trial " << trial;
  }
}

TEST(DecodeFastPath, UniformSpeedTakesThePerBatchOrder) {
  DecodeScratch scratch;
  for (const std::size_t n_jobs : {1u, 17u, 70u}) {
    for (const std::uint64_t seed : {3ULL, 4ULL}) {
      const GaProblem problem = build_problem(
          uniform_speed_context(n_jobs, seed), security::RiskPolicy::secure());
      ASSERT_EQ(problem.n_jobs(), n_jobs);
      scratch.bind(problem);
      const std::string where =
          std::to_string(n_jobs) + " jobs seed " + std::to_string(seed);
      EXPECT_TRUE(scratch.per_batch_order()) << where;
      expect_decodes_match_reference(problem, scratch, seed * 7, where);
    }
  }
}

TEST(DecodeFastPath, OneDifferingReachableCellFallsBackToTheBitmap) {
  const FitnessParams params{0.6, 2.0};
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  const GaProblem uniform = build_problem(uniform_speed_context(17, 5),
                                          security::RiskPolicy::secure());
  DecodeScratch scratch;
  scratch.bind(uniform);
  ASSERT_TRUE(scratch.per_batch_order());

  // A cell no gene can name (site 0 has 1 node, job 0 needs 2) may differ.
  GaProblem unreachable = uniform;
  ASSERT_EQ(unreachable.jobs[0].nodes, 2u);
  unreachable.exec[0] = 1.0;
  scratch.bind(unreachable);
  EXPECT_TRUE(scratch.per_batch_order());
  expect_decodes_match_reference(unreachable, scratch, 11, "unreachable");

  // A masked-down site is outside every domain, yet a validated gene may
  // still name it: one such cell with another exec forces the bitmap.
  const std::size_t n_sites = uniform.n_sites();
  for (const std::size_t job : {1u, 3u}) {
    GaProblem outside = uniform;
    const std::size_t cell = job * n_sites + 5;  // site 5 is masked down
    outside.exec[cell] = outside.exec[cell] * 0.25;
    scratch.bind(outside);
    const std::string where = "outside-domain cell of job " +
                              std::to_string(job);
    EXPECT_FALSE(scratch.per_batch_order()) << where;
    expect_decodes_match_reference(outside, scratch, 13, where);
    // Put the job's gene on that cell: outside its domain, so only the
    // validating overloads take the chromosome.
    util::Rng rng(17);
    for (int trial = 0; trial < 8; ++trial) {
      Chromosome chromosome = random_chromosome(outside, rng);
      chromosome[job] = 5;
      EXPECT_EQ(bits(decode_fitness(outside, chromosome, params)),
                bits(decode_fitness_reference(outside, chromosome, params)))
          << where << " trial " << trial;
      EXPECT_EQ(bits(batch_makespan(outside, chromosome)),
                bits(batch_makespan_reference(outside, chromosome)))
          << where << " trial " << trial;
    }
  }

  // One in-domain cell with another exec also forces the bitmap.
  GaProblem inside = uniform;
  const sim::SiteId site = inside.domains[4].front();
  inside.exec[4 * n_sites + site] += 1.0;
  scratch.bind(inside);
  EXPECT_FALSE(scratch.per_batch_order());
  expect_decodes_match_reference(inside, scratch, 19, "in-domain cell");
}

TEST(DecodeFastPath, RegistryPerBatchOrderOnlyOnTheNasTestbed) {
  // NAS sites all run at speed 1.0; PSA draws ten speed levels and the
  // synth classes carry heterogeneous raw ETC or speeds.
  for (const std::string& name : exp::scenario_names()) {
    const GaProblem problem = build_problem(scenario_batch(name, 24, 11),
                                            security::RiskPolicy::risky());
    if (problem.n_jobs() == 0) continue;
    DecodeScratch scratch;
    scratch.bind(problem);
    EXPECT_EQ(scratch.per_batch_order(), name == "nas") << name;
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

TEST(EvolveMemo, PreviousGenerationScoresSkipDecodes) {
  // The crowded two-site NAS problem: survivors of selection recur from
  // one generation to the next, so last generation's memo serves them.
  const auto context = scenario_batch("nas", 17, 3);
  GaProblem crowded = build_problem(context, security::RiskPolicy::risky());
  for (auto& domain : crowded.domains) {
    ASSERT_GE(domain.size(), 2u);
    domain.resize(2);
  }
  GaParams params;
  params.population = 200;
  params.generations = 60;
  util::Rng rng(21);
  const GaResult result = evolve(crowded, {}, params, rng);
  EXPECT_GT(result.decodes, 0u);
  EXPECT_LT(result.decodes, result.evaluations);
  // Evaluations and memo hits keep their per-generation meaning.
  EXPECT_EQ(result.evaluations + result.memo_hits,
            params.population * (params.generations + 1) -
                params.generations * params.elite_count);

  // With no earlier generation every evaluation is a decode.
  params.generations = 0;
  util::Rng initial_rng(21);
  const GaResult initial = evolve(crowded, {}, params, initial_rng);
  EXPECT_GT(initial.evaluations, 0u);
  EXPECT_EQ(initial.decodes, initial.evaluations);
}

}  // namespace
}  // namespace gridsched::core
