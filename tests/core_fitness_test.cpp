#include "core/ga_problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace gridsched::core {
namespace {

sim::SchedulerContext small_context() {
  sim::SchedulerContext context;
  context.now = 0.0;
  context.sites = {{0, 1, 1.0, 0.9}, {1, 1, 2.0, 0.5}};
  context.avail = {sim::NodeAvailability(1, 0.0), sim::NodeAvailability(1,
                                                                        0.0)};
  sim::BatchJob a;
  a.id = 0;
  a.work = 10.0;
  a.nodes = 1;
  a.demand = 0.8;
  sim::BatchJob b = a;
  b.id = 1;
  b.work = 6.0;
  context.jobs = {a, b};
  return context;
}

TEST(BuildProblem, KeepsAdmissibleJobsAndDomains) {
  const auto context = small_context();
  const GaProblem secure =
      build_problem(context, security::RiskPolicy::secure());
  ASSERT_EQ(secure.n_jobs(), 2u);
  EXPECT_EQ(secure.domains[0], (std::vector<sim::SiteId>{0}));  // SL 0.5 unsafe
  const GaProblem risky = build_problem(context, security::RiskPolicy::risky());
  EXPECT_EQ(risky.domains[0], (std::vector<sim::SiteId>{0, 1}));
}

TEST(BuildProblem, DropsJobsWithEmptyDomains) {
  auto context = small_context();
  context.jobs[0].nodes = 5;  // fits nowhere
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_EQ(problem.n_jobs(), 1u);
  EXPECT_EQ(problem.batch_index[0], 1u);
}

TEST(BuildProblem, RejectsSiteMaskOfWrongLength) {
  auto context = small_context();
  context.site_up = {1};  // two sites
  EXPECT_THROW(build_problem(context, security::RiskPolicy::risky()),
               std::invalid_argument);
  context.site_up = {1, 0};
  EXPECT_NO_THROW(build_problem(context, security::RiskPolicy::risky()));
}

TEST(BuildProblem, ComputesExecAndPfail) {
  auto context = small_context();
  context.lambda = 6.0;  // pfail follows the context's lambda, not a default
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  EXPECT_DOUBLE_EQ(problem.exec_at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(problem.exec_at(0, 1), 5.0);  // speed 2
  EXPECT_DOUBLE_EQ(problem.pfail_at(0, 0), 0.0);  // SL 0.9 >= SD 0.8
  EXPECT_GT(problem.pfail_at(0, 1), 0.0);           // SL 0.5 <  SD 0.8
  for (std::size_t j = 0; j < problem.n_jobs(); ++j) {
    for (std::size_t s = 0; s < problem.sites.size(); ++s) {
      EXPECT_EQ(problem.pfail_at(j, s),
                security::failure_probability(problem.jobs[j].demand,
                                              problem.sites[s].security, 6.0));
    }
  }
}

TEST(DecodeOrder, ShortestExecutionFirst) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  // Both jobs on site 0: execs 10 and 6 -> job 1 goes first.
  EXPECT_EQ(decode_order(problem, {0, 0}),
            (std::vector<std::size_t>{1, 0}));
  // Job 0 on the fast site (exec 5) overtakes job 1 (exec 6).
  EXPECT_EQ(decode_order(problem, {1, 0}),
            (std::vector<std::size_t>{0, 1}));
}

TEST(BatchMakespan, SingleSiteQueueing) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  // Both on site 0: 6 then 10 back to back.
  EXPECT_DOUBLE_EQ(batch_makespan(problem, {0, 0}), 16.0);
  // Split: job0 on fast site (5), job1 on slow site (6).
  EXPECT_DOUBLE_EQ(batch_makespan(problem, {1, 0}), 6.0);
}

TEST(BatchMakespan, RespectsExistingBacklog) {
  auto context = small_context();
  context.avail[1].reserve(1, 100.0, 0.0);  // fast site busy until 100
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  EXPECT_DOUBLE_EQ(batch_makespan(problem, {1, 0}), 105.0);
}

TEST(BatchMakespan, WrongLengthThrows) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  EXPECT_THROW(batch_makespan(problem, {0}), std::invalid_argument);
}

TEST(DecodeFitness, PureMakespanWhenWeightsZero) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  const FitnessParams params{0.0, 0.0};
  EXPECT_DOUBLE_EQ(decode_fitness(problem, {0, 0}, params),
                   batch_makespan(problem, {0, 0}));
}

TEST(DecodeFitness, RiskTermAddsExpectedRework) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  const double p = problem.pfail_at(0, 1);
  // Job 0 alone cannot be built (length mismatch); use both jobs but give
  // job 1 the safe slow site so only job 0 carries risk.
  FitnessParams params{0.0, 1.0};
  const double base = batch_makespan(problem, {1, 0});
  // Expected completion of job 0 on site 1: 5 + p*5; job 1: 6 (safe).
  const double expected = std::max(6.0, 5.0 + p * 5.0);
  EXPECT_DOUBLE_EQ(decode_fitness(problem, {1, 0}, params), expected);
  EXPECT_GE(decode_fitness(problem, {1, 0}, params), base - 1.0);
}

TEST(DecodeFitness, FlowtimeTermPenalisesLateAverages) {
  const auto context = small_context();
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  const FitnessParams no_flow{0.0, 0.0};
  const FitnessParams with_flow{1.0, 0.0};
  // Same makespan contribution, flowtime adds the mean completion.
  const double base = decode_fitness(problem, {0, 0}, no_flow);
  const double flow = decode_fitness(problem, {0, 0}, with_flow);
  // Completions on site 0: 6 and 16 -> mean 11.
  EXPECT_DOUBLE_EQ(base, 16.0);
  EXPECT_DOUBLE_EQ(flow, 16.0 + 11.0);
}

TEST(IsFeasible, DetectsDomainViolations) {
  const auto context = small_context();
  const GaProblem secure =
      build_problem(context, security::RiskPolicy::secure());
  EXPECT_TRUE(is_feasible(secure, {0, 0}));
  EXPECT_FALSE(is_feasible(secure, {1, 0}));  // site 1 not in secure domain
  EXPECT_FALSE(is_feasible(secure, {0}));     // wrong length
}

/// Property: batch_makespan equals a brute-force replay of the same
/// shortest-first reservation discipline on random instances.
class FitnessProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FitnessProperty, MatchesBruteForceReplay) {
  util::Rng rng(GetParam());
  for (int instance = 0; instance < 10; ++instance) {
    sim::SchedulerContext context;
    context.now = rng.uniform(0.0, 50.0);
    const std::size_t n_sites = 2 + rng.index(4);
    for (std::size_t s = 0; s < n_sites; ++s) {
      const auto nodes = static_cast<unsigned>(1 + rng.index(4));
      context.sites.push_back({static_cast<sim::SiteId>(s), nodes,
                               rng.uniform(0.5, 3.0), rng.uniform(0.4, 1.0)});
      sim::NodeAvailability avail(nodes, 0.0);
      if (rng.bernoulli(0.5)) {
        avail.reserve(1 + static_cast<unsigned>(rng.index(nodes)),
                      rng.uniform(1.0, 40.0), 0.0);
      }
      context.avail.push_back(avail);
    }
    const std::size_t n_jobs = 1 + rng.index(10);
    for (std::size_t j = 0; j < n_jobs; ++j) {
      sim::BatchJob job;
      job.id = static_cast<sim::JobId>(j);
      job.work = rng.uniform(1.0, 30.0);
      job.nodes = 1;
      job.demand = rng.uniform(0.6, 0.9);
      context.jobs.push_back(job);
    }
    const GaProblem problem =
        build_problem(context, security::RiskPolicy::risky());
    util::Rng chrom_rng(GetParam() + 1000);
    Chromosome chromosome(problem.n_jobs());
    for (std::size_t j = 0; j < chromosome.size(); ++j) {
      const auto& domain = problem.domains[j];
      chromosome[j] = domain[chrom_rng.index(domain.size())];
    }

    // Brute force: sort (exec, index), replay reservations.
    std::vector<std::size_t> order(chromosome.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return problem.exec_at(a, chromosome[a]) < problem.exec_at(b,
                                                                 chromosome[b]);
    });
    std::vector<sim::NodeAvailability> avail = problem.avail;
    double expected = problem.now;
    for (const std::size_t j : order) {
      const auto window = avail[chromosome[j]].reserve(
          problem.jobs[j].nodes, problem.exec_at(j,
                                                 chromosome[j]), problem.now);
      expected = std::max(expected, window.end);
    }
    EXPECT_DOUBLE_EQ(batch_makespan(problem, chromosome), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitnessProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace gridsched::core
