// Differential test: the matrix-free, incrementally cached heuristics in
// src/sched must produce exactly the assignment vectors of the dense-ETC
// reference loops (sched_reference.hpp) — same jobs, same sites, same
// commit order — for all six heuristics under secure, f-risky and risky
// policies, over thousands of seeded random contexts. The generator draws
// from small value grids so exact completion-time ties (across sites and
// across jobs) are common, and covers masked sites, secure_only retries,
// jobs that fit no site, raw-ETC and rank-1 exec models, and empty and
// single-job batches.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "sched/site_tree.hpp"
#include "sched_reference.hpp"
#include "security/security.hpp"
#include "sim/kernel.hpp"
#include "sim/scheduling.hpp"
#include "util/rng.hpp"

namespace gridsched::sim {

// gtest prints mismatching assignment vectors through this.
void PrintTo(const Assignment& assignment, std::ostream* os) {
  *os << assignment.job_index << "->" << assignment.site;
}

}  // namespace gridsched::sim

namespace gridsched::sched {
namespace {

using security::RiskPolicy;

const std::array<RiskPolicy, 3> kPolicies = {
    RiskPolicy::secure(), RiskPolicy::f_risky(0.5), RiskPolicy::risky()};

/// The dense reference loop of the registry heuristic `name`.
std::vector<sim::Assignment> reference_schedule(
    const std::string& name, const sim::SchedulerContext& context,
    const RiskPolicy& policy) {
  if (name == "mct") return reference::mct(context, policy);
  if (name == "met") return reference::met(context, policy);
  if (name == "olb") return reference::olb(context, policy);
  if (name == "min-min") return reference::min_min(context, policy);
  if (name == "max-min") return reference::max_min(context, policy);
  if (name == "sufferage") return reference::sufferage(context, policy);
  throw std::invalid_argument("no reference loop for " + name);
}

/// A value from a small grid, so equal values (and equal sums) recur.
double grid(util::Rng& rng, double step, std::int64_t max_steps) {
  return step * static_cast<double>(rng.uniform_int(1, max_steps));
}

/// The default site speed grid.
constexpr std::array kSpeedGrid = {1.0, 2.0, 4.0};

/// A context that owns the raw ETC matrix its jobs' rows point into
/// (copies share it; a sliced copy must not outlive this one).
struct MatrixContext : sim::SchedulerContext {
  sim::ExecModel exec;  ///< rank-1 fallback when no job carries a row
};

/// Random context with `n_jobs` jobs on `min_sites`..`max_sites` sites,
/// speeds drawn from `speeds`; in half of them every job carries its row
/// of a raw ETC matrix unless `rank_one`.
MatrixContext random_context(util::Rng& rng, std::size_t n_jobs,
                             std::int64_t min_sites, std::int64_t max_sites,
                             bool rank_one = false,
                             std::span<const double> speeds = kSpeedGrid) {
  MatrixContext context;
  context.now = rng.bernoulli(0.5) ? 0.0 : grid(rng, 5.0, 4);
  const std::size_t n_sites =
      static_cast<std::size_t>(rng.uniform_int(min_sites, max_sites));
  for (std::size_t s = 0; s < n_sites; ++s) {
    sim::SiteConfig site;
    site.id = static_cast<sim::SiteId>(s);
    site.nodes = static_cast<unsigned>(rng.uniform_int(1, 4));
    site.speed = speeds[rng.index(speeds.size())];
    site.security = 0.4 + 0.1 * static_cast<double>(rng.uniform_int(0, 6));
    sim::NodeAvailability avail(site.nodes, 0.0);
    // Pre-existing reservations on the integer grid: profiles with busy
    // nodes, partially overlapping queues and equal free times.
    const auto reservations = rng.uniform_int(0, 3);
    for (std::int64_t r = 0; r < reservations; ++r) {
      const auto k = static_cast<unsigned>(rng.uniform_int(1, site.nodes));
      avail.reserve(k, grid(rng, 5.0, 6), 0.0);
    }
    context.sites.push_back(site);
    context.avail.push_back(std::move(avail));
  }
  if (rng.bernoulli(0.3)) {
    context.site_up.resize(n_sites);
    for (auto& up : context.site_up) up = rng.bernoulli(0.7) ? 1 : 0;
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = grid(rng, 4.0, 4);
    // Up to 5 nodes against sites of at most 4: some jobs fit nowhere.
    job.nodes = static_cast<unsigned>(rng.uniform_int(1, 5));
    job.demand = 0.3 + 0.1 * static_cast<double>(rng.uniform_int(0, 6));
    job.secure_only = rng.bernoulli(0.15);
    context.jobs.push_back(job);
  }
  if (!rank_one && n_jobs > 0 && rng.bernoulli(0.5)) {
    std::vector<double> cells(n_jobs * n_sites);
    for (double& cell : cells) cell = grid(rng, 2.0, 5);
    context.exec = sim::ExecModel(n_jobs, n_sites, std::move(cells));
    for (sim::BatchJob& job : context.jobs) {
      job.etc_row = context.exec.row(job.id);
    }
  }
  return context;
}

TEST(SchedDifferential, MatchesDenseReferenceOnRandomContexts) {
  constexpr std::uint64_t kMasterSeed = 0x5eedd1ffULL;
  constexpr std::size_t kContexts = 2400;
  const std::vector<std::string> names = heuristic_names();
  ASSERT_EQ(names.size(), 6u);

  // One scheduler instance per (heuristic, policy), reused across every
  // context so scratch persisting between cycles (growing and shrinking
  // batches and site counts) is part of what is compared.
  std::vector<std::unique_ptr<sim::BatchScheduler>> schedulers;
  for (const std::string& name : names) {
    for (const RiskPolicy& policy : kPolicies) {
      schedulers.push_back(make_heuristic(name, policy));
    }
  }

  std::size_t compared = 0;
  std::size_t nonempty = 0;
  std::vector<sim::Assignment> out;
  for (std::size_t i = 0; i < kContexts; ++i) {
    util::Rng rng = util::Rng::child(kMasterSeed, i);
    // Batches of size 0 and 1 every few contexts; otherwise up to 12 jobs,
    // or up to 40 on the wide contexts, whose larger batches and site
    // counts make Min-Min family commits invalidate several cached bests.
    const bool wide = i % 5 == 4;
    std::size_t n_jobs = i % 7;
    if (n_jobs >= 2) {
      n_jobs = static_cast<std::size_t>(rng.uniform_int(2, wide ? 40 : 12));
    }
    const MatrixContext context =
        random_context(rng, n_jobs, 1, wide ? 16 : 6);

    for (std::size_t h = 0; h < names.size(); ++h) {
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        const RiskPolicy& policy = kPolicies[p];
        const auto expected = reference_schedule(names[h], context, policy);
        // Stale contents must be replaced, not appended to.
        out.assign(3, sim::Assignment{7, 7});
        schedulers[h * kPolicies.size() + p]->schedule_into(context, out);
        ASSERT_EQ(out, expected)
            << names[h] << " policy " << p << " context " << i;
        ++compared;
        if (!expected.empty()) ++nonempty;
      }
    }
  }
  EXPECT_EQ(compared, kContexts * names.size() * kPolicies.size());
  // Guard against a generator that degenerates into empty schedules.
  EXPECT_GT(nonempty, compared / 2);
}

TEST(SchedDifferential, WideRankOneMctMatchesReference) {
  // MCT's branch-and-bound site trees (SiteTree): rank-1 contexts on
  // 17..1100 sites, mostly non-powers of two so padding leaves exist, and
  // both sides of SiteTree::kMinSites. Speeds come from a 3-value grid and
  // free times from an integer grid, so equal-speed leaves and exact
  // completion ties across sites are the common case; masks, secure_only
  // jobs, jobs that fit no site and several node counts per batch ride
  // along. Every other context draws speeds from a grid of values one ulp
  // apart instead, so neighbouring leaves' exec times are equal or one ulp
  // apart and the reciprocal bounds of sibling subtrees tie or straddle
  // exact completions. One scheduler per policy serves every context, so
  // the trees are rebuilt across growing and shrinking site counts.
  constexpr std::uint64_t kMasterSeed = 0x3c7ee5ULL;
  constexpr std::size_t kContexts = 160;
  const std::array kFirstSites = {1100, 17, 64, 65, 1000, 63, 128, 129, 33};
  const double third = std::nextafter(3.0, 4.0);
  const std::array ulp_speeds = {
      3.0, third, std::nextafter(3.0, 2.0), std::nextafter(third, 4.0),
      1.5, std::nextafter(1.5, 2.0), std::nextafter(1.5, 1.0),
      0.75, std::nextafter(0.75, 1.0)};
  std::vector<std::unique_ptr<sim::BatchScheduler>> schedulers;
  for (const RiskPolicy& policy : kPolicies) {
    schedulers.push_back(make_heuristic("mct", policy));
  }

  std::size_t tree_contexts = 0;
  std::size_t assigned = 0;
  std::vector<sim::Assignment> out;
  for (std::size_t i = 0; i < kContexts; ++i) {
    util::Rng rng = util::Rng::child(kMasterSeed, i);
    const std::int64_t n_sites =
        i < kFirstSites.size() ? kFirstSites[i] : rng.uniform_int(17, 1100);
    const auto n_jobs = static_cast<std::size_t>(rng.uniform_int(1, 120));
    const sim::SchedulerContext context =
        i % 2 == 0
            ? random_context(rng, n_jobs, n_sites, n_sites, /*rank_one=*/true)
            : random_context(rng, n_jobs, n_sites, n_sites, /*rank_one=*/true,
                             ulp_speeds);
    if (SiteTree::applies(context)) ++tree_contexts;

    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const auto expected = reference::mct(context, kPolicies[p]);
      out.assign(3, sim::Assignment{7, 7});
      schedulers[p]->schedule_into(context, out);
      ASSERT_EQ(out, expected)
          << "policy " << p << " context " << i << " sites " << n_sites;
      assigned += expected.size();
    }
  }
  // Most contexts must exercise the trees, and place real work.
  EXPECT_GT(tree_contexts, kContexts * 3 / 4);
  EXPECT_GT(assigned, kContexts * kPolicies.size() * 10);
}

/// A wide rank-1 context whose one-ulp speed changes move MCT's answer.
/// Site 0 (speed 2, one node free at 0.5 - 2^-53) completes job 0 (one
/// node, work 1) at 1 - 2^-53. The other sites run at speed 1 and are
/// idle, except the last, which runs at `last_speed`: at 1 + 2^-52 it
/// completes job 0 at fl(1 / (1 + 2^-52)) = 1 - 2^-52 and wins, but a
/// tree still bounding it with the reciprocal of speed 1 (1 - 2^-53)
/// prunes it behind site 0's tie. Random jobs follow job 0.
sim::SchedulerContext cache_context(util::Rng& rng, std::size_t n_sites,
                                    double last_speed) {
  sim::SchedulerContext context;
  for (std::size_t s = 0; s < n_sites; ++s) {
    const bool first = s == 0;
    const bool last = s + 1 == n_sites;
    const unsigned nodes =
        first || last ? 1u : static_cast<unsigned>(rng.uniform_int(1, 4));
    const double speed = first ? 2.0 : last ? last_speed : 1.0;
    context.sites.push_back({static_cast<sim::SiteId>(s), nodes, speed, 1.0});
    context.avail.emplace_back(nodes, first ? 0.5 - 0x1p-53 : 0.0);
  }
  context.jobs.push_back({.id = 0, .nodes = 1, .work = 1.0, .demand = 0.5});
  for (std::size_t j = 1; j < 40; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = grid(rng, 4.0, 4);
    job.nodes = static_cast<unsigned>(rng.uniform_int(1, 4));
    job.demand = 0.5;
    job.secure_only = rng.bernoulli(0.15);
    context.jobs.push_back(job);
  }
  return context;
}

TEST(SchedDifferential, SiteTreeKeepsItsSpeedOrderOnlyWhileSpeedsMatch) {
  // One scheduler per policy serves a run of wide rank-1 contexts: the
  // same speeds twice, one speed one ulp faster, the old speed back, then
  // other site counts. SiteTree keeps its speed order across calls, so a
  // stale order (one rebuilt on a count change only, or never) prices
  // job 0 against the wrong reciprocal and differs from the reference.
  const double ulp_faster = std::nextafter(1.0, 2.0);
  ASSERT_EQ(1.0 / ulp_faster, 1.0 - 0x1p-52);
  struct Step {
    std::size_t sites;
    double last_speed;
  };
  const std::array<Step, 8> steps = {{{1000, 1.0},
                                      {1000, 1.0},
                                      {1000, ulp_faster},
                                      {1000, 1.0},
                                      {64, ulp_faster},
                                      {100, ulp_faster},
                                      {1000, ulp_faster},
                                      {100, 1.0}}};
  std::vector<std::unique_ptr<sim::BatchScheduler>> schedulers;
  for (const RiskPolicy& policy : kPolicies) {
    schedulers.push_back(make_heuristic("mct", policy));
  }
  std::vector<sim::Assignment> out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    util::Rng rng = util::Rng::child(0x5eedca11ULL, i);
    const sim::SchedulerContext context =
        cache_context(rng, steps[i].sites, steps[i].last_speed);
    ASSERT_TRUE(SiteTree::applies(context));
    const auto winner = static_cast<sim::SiteId>(
        steps[i].last_speed == 1.0 ? 0 : steps[i].sites - 1);
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const auto expected = reference::mct(context, kPolicies[p]);
      ASSERT_FALSE(expected.empty());
      ASSERT_EQ(expected.front(), (sim::Assignment{0, winner}));
      schedulers[p]->schedule_into(context, out);
      ASSERT_EQ(out, expected) << "policy " << p << " step " << i;
    }
  }
}

TEST(SchedDifferential, ExecRowMatchesExecOnEveryCell) {
  // The per-job row the scans hoist out of their site loops: with a raw
  // ETC row it is the matrix row, without one work / speed, and either
  // way it agrees with sim::exec_time on every (job, site).
  util::Rng rng = util::Rng::child(0xe7ec0ULL, 0);
  std::size_t with_matrix = 0;
  std::size_t without = 0;
  for (int i = 0; i < 40; ++i) {
    const MatrixContext context = random_context(rng, 9, 1, 12);
    const std::size_t n_sites = context.sites.size();
    const auto cells = context.exec.matrix_cells();
    for (const sim::BatchJob& job : context.jobs) {
      const sim::JobExecRow row = context.exec_row(job);
      for (std::size_t s = 0; s < n_sites; ++s) {
        const double speed = context.sites[s].speed;
        const double expected =
            context.exec.has_matrix()
                ? cells[static_cast<std::size_t>(job.id) * n_sites + s]
                : job.work / speed;
        ASSERT_EQ(row[s], expected) << "context " << i << " site " << s;
        ASSERT_EQ(row[s],
                  sim::exec_time(context.exec.row(job.id), job.work,
                                 static_cast<sim::SiteId>(s), speed));
        ASSERT_EQ(row[s], context.exec_time(job, s));
      }
    }
    ++(context.exec.has_matrix() ? with_matrix : without);
  }
  EXPECT_GT(with_matrix, 5u);
  EXPECT_GT(without, 5u);
}

TEST(SchedDifferential, TiesAcrossSitesAndJobsFollowTheReference) {
  // Identical idle sites and identical jobs: every completion time ties,
  // so only the first-index / first-position rules decide the result.
  sim::SchedulerContext context;
  for (std::size_t s = 0; s < 4; ++s) {
    context.sites.push_back({static_cast<sim::SiteId>(s), 2, 1.0, 1.0});
    context.avail.emplace_back(2, 0.0);
  }
  for (std::size_t j = 0; j < 9; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = 10.0;
    job.demand = 0.5;
    context.jobs.push_back(job);
  }
  for (const std::string& name : heuristic_names()) {
    SCOPED_TRACE(name);
    for (const RiskPolicy& policy : kPolicies) {
      const auto scheduler = make_heuristic(name, policy);
      EXPECT_EQ(scheduler->schedule(context),
                reference_schedule(name, context, policy));
    }
  }
}

TEST(SchedDifferential, MalformedContextIsRejected) {
  // The matrix-free scan reads profiles and the site mask without bounds
  // checks, so every heuristic validates the context up front: a zero-node
  // job, a profile with fewer nodes than its site declares, a missing
  // profile, and a non-empty mask shorter than the site list.
  sim::SchedulerContext zero_nodes;
  zero_nodes.sites.push_back({0, 2, 1.0, 1.0});
  zero_nodes.avail.emplace_back(2, 0.0);
  zero_nodes.jobs.push_back({.id = 0, .nodes = 0, .work = 10.0, .demand = 0.5});
  sim::SchedulerContext short_profile = zero_nodes;
  short_profile.avail[0] = sim::NodeAvailability(1, 0.0);
  short_profile.jobs[0].nodes = 2;
  sim::SchedulerContext missing = short_profile;
  missing.avail.clear();
  // Wide enough for MCT's site trees, which read the mask while building.
  sim::SchedulerContext short_mask;
  for (std::size_t s = 0; s < SiteTree::kMinSites; ++s) {
    short_mask.sites.push_back({static_cast<sim::SiteId>(s), 2, 1.0, 1.0});
    short_mask.avail.emplace_back(2, 0.0);
  }
  short_mask.jobs.push_back({.id = 0, .nodes = 1, .work = 10.0, .demand = 0.5});
  short_mask.site_up.assign(SiteTree::kMinSites - 1, 1);
  for (const std::string& name : heuristic_names()) {
    const auto scheduler = make_heuristic(name, RiskPolicy::risky());
    for (const auto* context :
         {&zero_nodes, &short_profile, &missing, &short_mask}) {
      EXPECT_THROW(scheduler->schedule(*context), std::invalid_argument)
          << name;
    }
  }
}

/// Pass-through risky Min-Min that keeps the first non-empty batch context
/// the kernel hands it.
class FirstContextScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "first-context"; }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    if (!first && !context.jobs.empty()) first = context;
    inner_.schedule_into(context, out);
  }

  std::optional<sim::SchedulerContext> first;

 private:
  MinMinScheduler inner_{RiskPolicy::risky()};
};

TEST(SchedDifferential, FRiskyAboveTheDeficitCutoffIsRisky) {
  // Under Table 1's ranges SD - SL <= 0.9 - 0.4 = 0.5, so P_fail <=
  // 1 - e^(-lambda / 2) and f-risky at any f above that excludes no pair:
  // it must produce exactly risky's assignments (at lambda = 2.5 the cutoff
  // is ~0.7135, the ROADMAP's "every f >= 0.72 is risky"). Lambda is set
  // only through the context. Registry scenarios whose first batch leaves
  // Table 1's ranges (synth-secure and synth-risky) are skipped.
  using security::kJobDemandHi;
  using security::kJobDemandLo;
  using security::kSiteSecurityHi;
  using security::kSiteSecurityLo;
  const auto in_table1 = [](const sim::SchedulerContext& context) {
    for (const sim::BatchJob& job : context.jobs) {
      if (job.demand < kJobDemandLo || job.demand > kJobDemandHi) return false;
    }
    for (const sim::SiteConfig& site : context.sites) {
      if (site.security < kSiteSecurityLo || site.security > kSiteSecurityHi) {
        return false;
      }
    }
    return true;
  };
  std::size_t scenarios = 0;
  std::size_t compared = 0;
  std::size_t above_half = 0;  // risky placements f-risky(0.5) would bar
  for (const std::string& name : exp::scenario_names()) {
    const exp::Scenario scenario = exp::make_scenario(name, 60);
    const workload::Workload workload = exp::make_workload(scenario, 17);
    sim::EngineConfig config = scenario.engine;
    config.seed = 9;
    sim::SimKernel kernel(workload.sites,
                          std::make_unique<workload::MaterializedStream>(
                              workload.jobs, workload.exec),
                          config, workload.churn);
    FirstContextScheduler recorder;
    kernel.run(recorder);
    ASSERT_TRUE(recorder.first.has_value()) << name;
    sim::SchedulerContext context = std::move(*recorder.first);
    if (!in_table1(context)) continue;
    ++scenarios;
    for (const double lambda : {1.5, 2.5, 4.0}) {
      context.lambda = lambda;
      const double f = 1.0 - std::exp(-lambda / 2.0) + 1e-9;
      for (const std::string heuristic : {"min-min", "sufferage", "mct"}) {
        const auto risky =
            make_heuristic(heuristic, RiskPolicy::risky())->schedule(context);
        const auto f_risky = make_heuristic(heuristic, RiskPolicy::f_risky(f))
                                 ->schedule(context);
        ASSERT_EQ(f_risky, risky)
            << heuristic << " on " << name << " at lambda " << lambda;
        ++compared;
        for (const sim::Assignment& assignment : risky) {
          if (security::failure_probability(
                  context.jobs[assignment.job_index].demand,
                  context.sites[assignment.site].security, lambda) > 0.5) {
            ++above_half;
          }
        }
      }
    }
  }
  // All but those two registry scenarios draw Table 1's ranges, and the
  // comparison has teeth: risky takes pairs that f = 0.5 would exclude.
  EXPECT_EQ(scenarios, exp::scenario_names().size() - 2);
  EXPECT_EQ(compared, scenarios * 3 * 3);
  EXPECT_GT(above_half, 0u);
}

}  // namespace
}  // namespace gridsched::sched
