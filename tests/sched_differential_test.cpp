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
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "sched_reference.hpp"
#include "security/security.hpp"
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

/// Random context with `n_jobs` jobs; `wide` draws larger batches and site
/// counts so Min-Min family commits invalidate several cached bests.
sim::SchedulerContext random_context(util::Rng& rng, std::size_t n_jobs,
                                     bool wide) {
  sim::SchedulerContext context;
  context.now = rng.bernoulli(0.5) ? 0.0 : grid(rng, 5.0, 4);
  const std::size_t n_sites =
      static_cast<std::size_t>(rng.uniform_int(1, wide ? 16 : 6));
  for (std::size_t s = 0; s < n_sites; ++s) {
    sim::SiteConfig site;
    site.id = static_cast<sim::SiteId>(s);
    site.nodes = static_cast<unsigned>(rng.uniform_int(1, 4));
    site.speed = std::array{1.0, 2.0, 4.0}[rng.index(3)];
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
  if (n_jobs > 0 && rng.bernoulli(0.5)) {
    std::vector<double> cells(n_jobs * n_sites);
    for (double& cell : cells) cell = grid(rng, 2.0, 5);
    context.exec = sim::ExecModel(n_jobs, n_sites, std::move(cells));
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
    // or up to 40 on the wide contexts.
    const bool wide = i % 5 == 4;
    std::size_t n_jobs = i % 7;
    if (n_jobs >= 2) {
      n_jobs = static_cast<std::size_t>(rng.uniform_int(2, wide ? 40 : 12));
    }
    const sim::SchedulerContext context = random_context(rng, n_jobs, wide);

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
  // The matrix-free scan reads profiles without bounds checks, so every
  // heuristic validates the context up front: a zero-node job, a profile
  // with fewer nodes than its site declares, and a missing profile.
  sim::SchedulerContext zero_nodes;
  zero_nodes.sites.push_back({0, 2, 1.0, 1.0});
  zero_nodes.avail.emplace_back(2, 0.0);
  zero_nodes.jobs.push_back({0, 10.0, 0, 0.5, 0.0, false});
  sim::SchedulerContext short_profile = zero_nodes;
  short_profile.avail[0] = sim::NodeAvailability(1, 0.0);
  short_profile.jobs[0].nodes = 2;
  sim::SchedulerContext missing = short_profile;
  missing.avail.clear();
  for (const std::string& name : heuristic_names()) {
    const auto scheduler = make_heuristic(name, RiskPolicy::risky());
    for (const auto* context : {&zero_nodes, &short_profile, &missing}) {
      EXPECT_THROW(scheduler->schedule(*context), std::invalid_argument)
          << name;
    }
  }
}

}  // namespace
}  // namespace gridsched::sched
