#include "core/ga_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/operators.hpp"
#include "exp/scenario_registry.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"

namespace gridsched::core {
namespace {

/// A problem with a known optimum: 4 equal-speed single-node sites, 8 unit
/// jobs; spreading them 2-per-site is optimal (makespan = now + 2).
GaProblem spread_problem(std::size_t n_jobs = 8, std::size_t n_sites = 4) {
  sim::SchedulerContext context;
  context.now = 0.0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    context.sites.push_back({static_cast<sim::SiteId>(s), 1u, 1.0, 1.0});
    context.avail.emplace_back(1u, 0.0);
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = 1.0;
    job.nodes = 1;
    job.demand = 0.5;
    context.jobs.push_back(job);
  }
  return build_problem(context, security::RiskPolicy::risky());
}

GaParams quick_params(std::size_t population = 40,
                      std::size_t generations = 30) {
  GaParams params;
  params.population = population;
  params.generations = generations;
  params.fitness = {0.0, 0.0};  // pure makespan: optimum known exactly
  return params;
}

TEST(Evolve, RejectsEmptyProblem) {
  GaProblem empty;
  util::Rng rng(1);
  EXPECT_THROW(evolve(empty, {}, quick_params(), rng), std::invalid_argument);
}

TEST(Evolve, RejectsZeroPopulation) {
  const auto problem = spread_problem();
  GaParams params = quick_params(0);
  util::Rng rng(1);
  EXPECT_THROW(evolve(problem, {}, params, rng), std::invalid_argument);
}

TEST(Evolve, RejectsInfeasibleSeed) {
  const auto problem = spread_problem(4, 2);
  util::Rng rng(1);
  EXPECT_THROW(evolve(problem, {{9, 9, 9, 9}}, quick_params(), rng),
               std::invalid_argument);
  EXPECT_THROW(evolve(problem, {{0, 1}}, quick_params(), rng),
               std::invalid_argument);  // wrong length
}

TEST(Evolve, FindsTheSpreadOptimum) {
  const auto problem = spread_problem();
  util::Rng rng(42);
  const GaResult result = evolve(problem, {}, quick_params(60, 60), rng);
  EXPECT_TRUE(is_feasible(problem, result.best));
  EXPECT_DOUBLE_EQ(result.best_fitness, 2.0);  // 8 unit jobs on 4 sites
}

TEST(Evolve, BestPerGenerationIsMonotoneNonIncreasing) {
  const auto problem = spread_problem(12, 3);
  util::Rng rng(7);
  const GaResult result = evolve(problem, {}, quick_params(30, 40), rng);
  ASSERT_EQ(result.best_per_generation.size(), 41u);
  for (std::size_t g = 1; g < result.best_per_generation.size(); ++g) {
    EXPECT_LE(result.best_per_generation[g], result.best_per_generation[g - 1]);
  }
  EXPECT_DOUBLE_EQ(result.best_per_generation.back(), result.best_fitness);
}

TEST(Evolve, ElitismPreservesAnOptimalSeed) {
  const auto problem = spread_problem();
  // Hand the GA an optimal chromosome; the answer must stay optimal.
  const Chromosome optimal = {0, 1, 2, 3, 0, 1, 2, 3};
  util::Rng rng(3);
  const GaResult result = evolve(problem, {optimal}, quick_params(20, 10), rng);
  EXPECT_DOUBLE_EQ(result.best_fitness, 2.0);
}

TEST(Evolve, ImprovesOverPureRandomInitialBest) {
  // Larger asymmetric instance where random assignment is clearly bad.
  const auto problem = spread_problem(24, 6);
  util::Rng seed_rng(100);
  double initial_best = 1e300;
  std::vector<Chromosome> initial;
  for (int i = 0; i < 50; ++i) {
    initial.push_back(random_chromosome(problem, seed_rng));
    initial_best = std::min(
        initial_best, decode_fitness(problem, initial.back(), {0.0, 0.0}));
  }
  util::Rng rng(101);
  const GaResult result =
      evolve(problem, std::move(initial), quick_params(50, 50), rng);
  EXPECT_LE(result.best_fitness, initial_best);
}

TEST(Evolve, DeterministicForIdenticalRngSeeds) {
  const auto problem = spread_problem(10, 3);
  auto run = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    return evolve(problem, {}, quick_params(30, 20), rng);
  };
  const GaResult a = run(5);
  const GaResult b = run(5);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_per_generation, b.best_per_generation);
}

TEST(Evolve, TruncatesOversizedInitialPopulation) {
  const auto problem = spread_problem(4, 2);
  util::Rng seed_rng(1);
  std::vector<Chromosome> initial;
  for (int i = 0; i < 100; ++i) initial.push_back(random_chromosome(problem,
                                                                    seed_rng));
  GaParams params = quick_params(10, 5);
  util::Rng rng(2);
  const GaResult result = evolve(problem, std::move(initial), params, rng);
  EXPECT_TRUE(is_feasible(problem, result.best));
}

TEST(Evolve, SingleJobProblem) {
  const auto problem = spread_problem(1, 3);
  util::Rng rng(4);
  const GaResult result = evolve(problem, {}, quick_params(10, 5), rng);
  ASSERT_EQ(result.best.size(), 1u);
  EXPECT_DOUBLE_EQ(result.best_fitness, 1.0);
}

TEST(Evolve, HonoursEliteCountZero) {
  const auto problem = spread_problem(8, 4);
  GaParams params = quick_params(30, 30);
  params.elite_count = 0;
  util::Rng rng(6);
  const GaResult result = evolve(problem, {}, params, rng);
  // Without elitism the *population* may regress, but the reported best is
  // tracked globally and must still be monotone.
  for (std::size_t g = 1; g < result.best_per_generation.size(); ++g) {
    EXPECT_LE(result.best_per_generation[g], result.best_per_generation[g - 1]);
  }
}


// ------------------------------------------------------ golden GaResults ---

/// Pass-through Min-Min scheduler that keeps the GA problem of the first
/// batch it sees with at least one schedulable job (built as GaScheduler
/// builds it: risky policy at the kernel's Eq. 1 lambda).
class FirstProblemScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "first-problem"; }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    if (!problem) {
      GaProblem built =
          build_problem(context, security::RiskPolicy::risky());
      if (built.n_jobs() > 0) problem = std::move(built);
    }
    inner_.schedule_into(context, out);
  }

  std::optional<GaProblem> problem;

 private:
  sched::MinMinScheduler inner_{security::RiskPolicy::f_risky(0.5)};
};

/// The first STGA batch problem of a registry scenario (60 jobs, workload
/// seed 17, engine seed 9).
GaProblem first_batch_problem(const std::string& name) {
  const exp::Scenario scenario = exp::make_scenario(name, 60);
  const workload::Workload workload = exp::make_workload(scenario, 17);
  sim::EngineConfig config = scenario.engine;
  config.seed = 9;
  sim::SimKernel kernel(workload.sites,
                        std::make_unique<workload::MaterializedStream>(
                            workload.jobs, workload.exec),
                        config, workload.churn);
  FirstProblemScheduler recorder;
  kernel.run(recorder);
  if (!recorder.problem) throw std::runtime_error(name + ": no GA batch");
  return std::move(*recorder.problem);
}

/// The STGA's heuristic population seeds (Min-Min and Sufferage on the
/// problem's own batch, risky policy), complete ones only. The problem
/// outlives the run it came from, so each job's ETC row is re-pointed at
/// the problem's own exec matrix, which holds the same cell on every site
/// the job fits (the only cells a heuristic reads).
std::vector<Chromosome> heuristic_seeds(const GaProblem& problem) {
  sim::SchedulerContext context;
  context.now = problem.now;
  context.sites = problem.sites;
  context.avail = problem.avail;
  context.site_up = problem.site_up;
  context.jobs = problem.jobs;
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    context.jobs[j].etc_row = &problem.exec[j * problem.n_sites()];
  }
  std::vector<Chromosome> seeds;
  sched::MinMinScheduler min_min(security::RiskPolicy::risky());
  sched::SufferageScheduler sufferage(security::RiskPolicy::risky());
  for (sched::HeuristicScheduler* heuristic :
       {static_cast<sched::HeuristicScheduler*>(&min_min),
        static_cast<sched::HeuristicScheduler*>(&sufferage)}) {
    const auto assignments = heuristic->schedule(context);
    if (assignments.size() != problem.n_jobs()) continue;
    Chromosome chromosome(problem.n_jobs());
    for (const auto& assignment : assignments) {
      chromosome[assignment.job_index] = assignment.site;
    }
    seeds.push_back(std::move(chromosome));
  }
  return seeds;
}

/// 64-bit FNV-1a over a GaResult: best genes, the bit patterns of
/// best_fitness and best_per_generation, evaluations and memo_hits. Words
/// are hashed as 8-byte little-endian values, independent of host order.
std::uint64_t digest(const GaResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto u64 = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash = (hash ^ ((value >> shift) & 0xffU)) * 0x100000001b3ULL;
    }
  };
  u64(result.best.size());
  for (const sim::SiteId gene : result.best) u64(gene);
  u64(std::bit_cast<std::uint64_t>(result.best_fitness));
  u64(result.best_per_generation.size());
  for (const double best : result.best_per_generation) {
    u64(std::bit_cast<std::uint64_t>(best));
  }
  u64(result.evaluations);
  u64(result.memo_hits);
  return hash;
}

GaParams golden_params() {
  GaParams params;
  params.population = 61;  // odd: the spare-child path runs every generation
  params.generations = 40;
  return params;
}

constexpr std::uint64_t kGoldenRngSeeds[] = {1, 2, 3};

// Golden digests of evolve() on each registry scenario's first batch
// problem, seeded with its heuristic solutions, at golden_params() and
// each of kGoldenRngSeeds, captured at commit 60e1ebd (std::unordered_map
// duplicate memo, out-of-line xoshiro draws). Any engine change must
// reproduce them bit for bit.
const std::map<std::string, std::array<std::uint64_t, 3>>& golden_digests() {
  static const std::map<std::string, std::array<std::uint64_t, 3>> kDigests = {
      {"nas",
       {0x7693a78a9050780dULL, 0x3fa41a90ae6f7463ULL, 0x77aa528c35781729ULL}},
      {"psa",
       {0x4e44c3e57a2b9964ULL, 0x39fdf2a735de7776ULL, 0x6a3d1366136aa298ULL}},
      {"synth-batch",
       {0xb10e9ee66b0561d3ULL, 0x6575c75b43dd882aULL, 0xb4f28132b22b8c9fULL}},
      {"synth-bursty",
       {0x30783b6169a194c3ULL, 0xfc480d3567cdb65eULL, 0x6fc7fe65fea22ec6ULL}},
      {"synth-churn-hi",
       {0xdaefff8e1d5befe4ULL, 0xc2dbb6b72c9404d9ULL, 0x964f7a5e6b4cb7a2ULL}},
      {"synth-churn-lo",
       {0xdce616788de6e707ULL, 0xc0f0af9010dc131aULL, 0xce935d9ed7fb9b2cULL}},
      {"synth-consistent-hihi",
       {0x39bd2f93b609148bULL, 0xb227e24d7b7c220bULL, 0x380542a82f3b1bd5ULL}},
      {"synth-consistent-lolo",
       {0xe13a117418fcb232ULL, 0x183896065491661aULL, 0x13298abbdc43b168ULL}},
      {"synth-inconsistent-hihi",
       {0x0f5ee461e24e4151ULL, 0xe5da380e2581127dULL, 0xa378a40d2bab8f54ULL}},
      {"synth-inconsistent-lolo",
       {0x56299be891e6bb2aULL, 0xa3cf3f13450800dcULL, 0xad1402fb1e604c42ULL}},
      {"synth-risky",
       {0x8e7b1b3f84d66593ULL, 0xb39f5f9513abf063ULL, 0xa1750ada4fd42f0aULL}},
      {"synth-secure",
       {0x37ccf7264ea4781bULL, 0x97de24d797ae9a8fULL, 0xfe234c71b70e113cULL}},
      {"synth-semi-hihi",
       {0x08fccadf66fb65a7ULL, 0x9d2a41b12dd90c00ULL, 0x57a8b8412f654e1fULL}},
      {"synth-semi-lolo",
       {0x4f3719704f6de776ULL, 0x48ed2a95590ea978ULL, 0x2d0e764665424843ULL}},
      {"synth-stream-hi",
       {0x2de786a9c866e86eULL, 0xfd10f3ebbf9a1d7fULL, 0x755d1c8f0aa43ddaULL}},
      {"synth-stream-med",
       {0x7deedd03be2ad10fULL, 0x8217ec6c2a5caf58ULL, 0x14b86075033c5843ULL}},
  };
  return kDigests;
}

TEST(EvolveGolden, RegistryFirstBatchesReproduceGoldenDigests) {
  const std::vector<std::string> names = exp::scenario_names();
  EXPECT_EQ(names.size(), golden_digests().size())
      << "a scenario was added or removed; capture or drop its digests";
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const GaProblem problem = first_batch_problem(name);
    const std::vector<Chromosome> seeds = heuristic_seeds(problem);
    const auto golden = golden_digests().find(name);
    ASSERT_NE(golden, golden_digests().end()) << "no golden digest";
    for (std::size_t k = 0; k < std::size(kGoldenRngSeeds); ++k) {
      util::Rng rng(kGoldenRngSeeds[k]);
      const GaResult result = evolve(problem, seeds, golden_params(), rng);
      EXPECT_EQ(digest(result), golden->second[k])
          << "rng seed " << kGoldenRngSeeds[k] << std::hex << " digest 0x"
          << digest(result);
    }
  }
}

TEST(EvolveGolden, SeedsBoundTheGa) {
  // Elitism plus best-ever tracking: the GA never returns a chromosome
  // worse than a complete heuristic seed it started from.
  for (const std::string& name : exp::scenario_names()) {
    SCOPED_TRACE(name);
    const GaProblem problem = first_batch_problem(name);
    const std::vector<Chromosome> seeds = heuristic_seeds(problem);
    if (seeds.size() < 2) continue;  // a heuristic left a job unplaced
    const GaParams params = golden_params();
    for (const std::uint64_t seed : kGoldenRngSeeds) {
      util::Rng rng(seed);
      const GaResult result = evolve(problem, seeds, params, rng);
      for (const Chromosome& chromosome : seeds) {
        EXPECT_LE(result.best_fitness,
                  decode_fitness(problem, chromosome, params.fitness));
      }
    }
  }
}

}  // namespace
}  // namespace gridsched::core
