// Min-Min, Max-Min and Sufferage: iterative heuristics that repeatedly
// commit one job, chosen from every pending job's best site, until no
// pending job has an admissible site.
//
// Each job's best completion time and site (Sufferage: also the second
// best) is cached. Committing a job to site s only moves s's free times
// later, so a cached best that is not s stays the best (a later-or-equal
// time at s never beats it under the strict-<, first-index rule), and
// only the jobs whose cached best or second-best site is s are rescanned.
// Selection is then O(batch) per commit, with results identical to a
// full rescan of every pending job.
#include <limits>
#include <numeric>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/scan.hpp"
#include "util/grow.hpp"

namespace gridsched::sched {

namespace {

using JobBest = HeuristicScratch::JobBest;

/// `job`'s best (and, with kSecond, second-best) admissible site on the
/// current availability, first site index winning ties.
template <bool kSecond>
JobBest scan_job(const sim::SchedulerContext& context,
                 const security::RiskCutoff& cutoff,
                 const std::vector<sim::NodeAvailability>& avail,
                 const sim::BatchJob& job) {
  JobBest b;
  const sim::JobExecRow exec = context.exec_row(job);
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (!scan::fits(context, job, s)) continue;
    const double completion =
        scan::completion(avail[s], job, exec[s], context.now);
    const auto site = static_cast<sim::SiteId>(s);
    if constexpr (kSecond) {
      if (!(completion < b.second) || !admissible(context, job, s, cutoff)) {
        continue;
      }
      if (completion < b.best) {
        b.second = b.best;
        b.second_site = b.best_site;
        b.best = completion;
        b.best_site = site;
      } else {
        b.second = completion;
        b.second_site = site;
      }
    } else if (completion < b.best && admissible(context, job, s, cutoff)) {
      b.best = completion;
      b.best_site = site;
    }
  }
  return b;
}

/// Shared commit loop. `pick(unassigned, best)` returns the position in
/// `unassigned` of the job to commit next (the first position among ties),
/// or unassigned.size() to stop.
template <bool kSecond, typename PickFn>
void commit_loop(const sim::SchedulerContext& context,
                 const security::RiskPolicy& policy, HeuristicScratch& scratch,
                 std::vector<sim::Assignment>& out, PickFn&& pick) {
  scan::check_context(context);
  const security::RiskCutoff cutoff(policy, context.lambda);
  const std::size_t n = context.jobs.size();
  scratch.avail = context.avail;
  util::reserve_geometric(scratch.unassigned, n);
  scratch.unassigned.resize(n);
  std::iota(scratch.unassigned.begin(), scratch.unassigned.end(),
            std::size_t{0});
  util::reserve_geometric(scratch.best, n);
  scratch.best.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const sim::BatchJob& job = context.jobs[j];
    scratch.best[j] = scan_job<kSecond>(context, cutoff, scratch.avail, job);
  }
  out.clear();
  util::reserve_geometric(out, n);

  std::vector<std::size_t>& unassigned = scratch.unassigned;
  while (!unassigned.empty()) {
    const std::size_t pos = pick(unassigned, scratch.best);
    if (pos == unassigned.size()) break;  // nothing admissible remains

    const std::size_t j = unassigned[pos];
    const sim::BatchJob& job = context.jobs[j];
    const sim::SiteId site = scratch.best[j].best_site;
    scratch.avail[site].reserve(job.nodes, context.exec_time(job, site),
                                context.now);
    out.push_back({j, site});
    unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(pos));

    for (const std::size_t k : unassigned) {
      JobBest& b = scratch.best[k];
      if (b.best_site == site || (kSecond && b.second_site == site)) {
        b = scan_job<kSecond>(context, cutoff, scratch.avail, context.jobs[k]);
      }
    }
  }
}

/// Min-Min: the job whose best completion time is globally smallest.
std::size_t pick_min_min(const std::vector<std::size_t>& unassigned,
                         const std::vector<JobBest>& best) {
  std::size_t pick = unassigned.size();
  double pick_completion = std::numeric_limits<double>::infinity();
  for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
    const JobBest& b = best[unassigned[pos]];
    if (b.best_site != sim::kInvalidSite && b.best < pick_completion) {
      pick_completion = b.best;
      pick = pos;
    }
  }
  return pick;
}

/// Max-Min: the job whose best completion time is the *largest*.
std::size_t pick_max_min(const std::vector<std::size_t>& unassigned,
                         const std::vector<JobBest>& best) {
  std::size_t pick = unassigned.size();
  double pick_completion = -1.0;
  for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
    const JobBest& b = best[unassigned[pos]];
    if (b.best_site != sim::kInvalidSite && b.best > pick_completion) {
      pick_completion = b.best;
      pick = pos;
    }
  }
  return pick;
}

/// Sufferage: the job with the largest second-best minus best completion
/// time. A job with a single admissible site suffers infinitely if it is
/// not served.
std::size_t pick_sufferage(const std::vector<std::size_t>& unassigned,
                           const std::vector<JobBest>& best) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t pick = unassigned.size();
  double pick_sufferage = -1.0;
  double pick_best_completion = kInf;
  for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
    const JobBest& b = best[unassigned[pos]];
    if (b.best_site == sim::kInvalidSite) continue;
    const double sufferage = b.second == kInf ? kInf : b.second - b.best;
    // Ties broken toward the earlier-completing job for determinism.
    if (sufferage > pick_sufferage ||
        (sufferage == pick_sufferage && b.best < pick_best_completion)) {
      pick_sufferage = sufferage;
      pick = pos;
      pick_best_completion = b.best;
    }
  }
  return pick;
}

}  // namespace

void MinMinScheduler::schedule_into(const sim::SchedulerContext& context,
                                    std::vector<sim::Assignment>& out) {
  commit_loop<false>(context, policy_, scratch_, out, pick_min_min);
}

void MaxMinScheduler::schedule_into(const sim::SchedulerContext& context,
                                    std::vector<sim::Assignment>& out) {
  commit_loop<false>(context, policy_, scratch_, out, pick_max_min);
}

void SufferageScheduler::schedule_into(const sim::SchedulerContext& context,
                                       std::vector<sim::Assignment>& out) {
  commit_loop<true>(context, policy_, scratch_, out, pick_sufferage);
}

}  // namespace gridsched::sched
