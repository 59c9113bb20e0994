// Test-only reference implementations of the six batch heuristics: the
// original dense-ETC loops (a fresh EtcMatrix and availability copy per
// call, the full admissibility predicate evaluated on every cell, a full
// rescan of every unassigned job per Min-Min family commit). They are the
// oracle the matrix-free schedulers in src/sched are diffed against, so
// keep them naive — any cleverness added here weakens the differential
// test. They use their own admissibility predicate, not sched::admissible,
// whose risk cutoff is part of what is under test.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sched/etc_matrix.hpp"
#include "sched/scan.hpp"
#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched::reference {

/// Admissibility straight from the model: the job fits a usable site, a
/// fail-stop retry goes only where it is safe, and otherwise the policy's
/// mode decides, f-risky by Eq. 1 at the context's lambda.
inline bool admissible(const sim::SchedulerContext& context,
                       const sim::BatchJob& job, std::size_t s,
                       const security::RiskPolicy& policy) {
  if (!scan::fits(context, job, s) || !context.site_usable(s)) return false;
  const double sl = context.sites[s].security;
  if (job.secure_only) return security::is_safe(job.demand, sl);
  switch (policy.mode()) {
    case security::RiskMode::kSecure:
      return security::is_safe(job.demand, sl);
    case security::RiskMode::kRisky:
      return true;
    case security::RiskMode::kFRisky:
      return security::failure_probability(job.demand, sl, context.lambda) <=
             policy.f();
  }
  return false;
}

/// Single-pass skeleton: `score` returns the value to minimise for an
/// admissible (job, site) pair given the current availability.
template <typename ScoreFn>
std::vector<sim::Assignment> single_pass(const sim::SchedulerContext& context,
                                         const security::RiskPolicy& policy,
                                         ScoreFn&& score) {
  const EtcMatrix etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;
  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    sim::SiteId best_site = sim::kInvalidSite;
    double best_score = EtcMatrix::kInfeasible;
    for (std::size_t s = 0; s < context.sites.size(); ++s) {
      if (!admissible(context, job, s, policy)) continue;
      const double value = score(j, s, job, avail[s], etc);
      if (value < best_score) {
        best_score = value;
        best_site = static_cast<sim::SiteId>(s);
      }
    }
    if (best_site == sim::kInvalidSite) continue;  // stays pending
    avail[best_site].reserve(job.nodes, etc.exec(j, best_site), context.now);
    result.push_back({j, best_site});
  }
  return result;
}

inline std::vector<sim::Assignment> mct(const sim::SchedulerContext& context,
                                        const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t j, std::size_t s, const sim::BatchJob& job,
                         const sim::NodeAvailability& avail,
                         const EtcMatrix& etc) {
                       return avail.preview(job.nodes, etc.exec(j, s),
                                            context.now).end;
                     });
}

inline std::vector<sim::Assignment> met(const sim::SchedulerContext& context,
                                        const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t j, std::size_t s, const sim::BatchJob&,
                         const sim::NodeAvailability&, const EtcMatrix& etc) {
                       return etc.exec(j, s);
                     });
}

inline std::vector<sim::Assignment> olb(const sim::SchedulerContext& context,
                                        const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t, std::size_t, const sim::BatchJob& job,
                         const sim::NodeAvailability& avail, const EtcMatrix&) {
                       return avail.earliest_start(job.nodes, context.now);
                     });
}

inline std::vector<sim::Assignment> min_min(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcMatrix etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // For every remaining job find its minimum-completion-time site, then
    // commit the job whose minimum is globally smallest.
    std::size_t best_pos = unassigned.size();
    sim::SiteId best_site = sim::kInvalidSite;
    double best_completion = EtcMatrix::kInfeasible;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < best_completion) {
          best_completion = completion;
          best_pos = pos;
          best_site = static_cast<sim::SiteId>(s);
        }
      }
    }
    if (best_pos == unassigned.size()) break;  // nothing admissible remains

    const std::size_t j = unassigned[best_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[best_site].reserve(job.nodes, etc.exec(j, best_site), context.now);
    result.push_back({j, best_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(best_pos));
  }
  return result;
}

inline std::vector<sim::Assignment> max_min(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcMatrix etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // Each remaining job's best (minimum) completion time; commit the job
    // whose best completion is the *largest*.
    std::size_t pick_pos = unassigned.size();
    sim::SiteId pick_site = sim::kInvalidSite;
    double pick_completion = -1.0;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      sim::SiteId job_best_site = sim::kInvalidSite;
      double job_best = EtcMatrix::kInfeasible;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < job_best) {
          job_best = completion;
          job_best_site = static_cast<sim::SiteId>(s);
        }
      }
      if (job_best_site == sim::kInvalidSite) continue;
      if (job_best > pick_completion) {
        pick_completion = job_best;
        pick_pos = pos;
        pick_site = job_best_site;
      }
    }
    if (pick_pos == unassigned.size()) break;

    const std::size_t j = unassigned[pick_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[pick_site].reserve(job.nodes, etc.exec(j, pick_site), context.now);
    result.push_back({j, pick_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
  }
  return result;
}

inline std::vector<sim::Assignment> sufferage(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcMatrix etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // Sufferage = second-best completion - best completion. A job with a
    // single admissible site suffers infinitely if it is not served.
    std::size_t pick_pos = unassigned.size();
    sim::SiteId pick_site = sim::kInvalidSite;
    double pick_sufferage = -1.0;
    double pick_best_completion = EtcMatrix::kInfeasible;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      sim::SiteId best_site = sim::kInvalidSite;
      double best = EtcMatrix::kInfeasible;
      double second = EtcMatrix::kInfeasible;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < best) {
          second = best;
          best = completion;
          best_site = static_cast<sim::SiteId>(s);
        } else if (completion < second) {
          second = completion;
        }
      }
      if (best_site == sim::kInvalidSite) continue;
      const double sufferage =
          second == EtcMatrix::kInfeasible
              ? std::numeric_limits<double>::infinity()
              : second - best;
      // Ties broken toward the earlier-completing job for determinism.
      if (sufferage > pick_sufferage ||
          (sufferage == pick_sufferage && best < pick_best_completion)) {
        pick_sufferage = sufferage;
        pick_pos = pos;
        pick_site = best_site;
        pick_best_completion = best;
      }
    }
    if (pick_pos == unassigned.size()) break;

    const std::size_t j = unassigned[pick_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[pick_site].reserve(job.nodes, etc.exec(j, pick_site), context.now);
    result.push_back({j, pick_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
  }
  return result;
}

}  // namespace gridsched::sched::reference
