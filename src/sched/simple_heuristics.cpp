// MCT, MET and OLB: single-pass heuristics that place jobs in batch order.
#include <limits>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/scan.hpp"
#include "util/grow.hpp"

namespace gridsched::sched {

namespace {

/// Validates the context and resets the working profiles and the output.
void begin_pass(const sim::SchedulerContext& context,
                std::vector<sim::NodeAvailability>& avail,
                std::vector<sim::Assignment>& out) {
  scan::check_context(context);
  avail = context.avail;
  out.clear();
  util::reserve_geometric(out, context.jobs.size());
}

/// Shared single-pass skeleton (after begin_pass): places each job in batch
/// order on the site `pick(job)` returns (kInvalidSite leaves it
/// pending) and calls `committed(site)` after every reservation.
template <typename PickFn, typename CommitFn>
void single_pass(const sim::SchedulerContext& context,
                 std::vector<sim::NodeAvailability>& avail,
                 std::vector<sim::Assignment>& out, PickFn&& pick,
                 CommitFn&& committed) {
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    const sim::SiteId site = pick(job);
    if (site == sim::kInvalidSite) continue;  // stays pending
    avail[site].reserve(job.nodes, context.exec_time(job, site), context.now);
    out.push_back({j, site});
    committed(site);
  }
}

/// The admissible site minimising `score(exec, s, avail[s])` over the
/// structurally feasible sites, given the current availability and the
/// job's exec row (fetched once, not per site), first site index among
/// ties; admissibility is checked only for strict improvements.
template <typename ScoreFn>
sim::SiteId scan_best(const sim::SchedulerContext& context,
                      const security::RiskCutoff& cutoff,
                      const std::vector<sim::NodeAvailability>& avail,
                      const sim::BatchJob& job, ScoreFn&& score) {
  sim::SiteId best_site = sim::kInvalidSite;
  double best_score = std::numeric_limits<double>::infinity();
  const sim::JobExecRow exec = context.exec_row(job);
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (!scan::fits(context, job, s)) continue;
    const double value = score(job, exec, s, avail[s]);
    if (value < best_score && admissible(context, job, s, cutoff)) {
      best_score = value;
      best_site = static_cast<sim::SiteId>(s);
    }
  }
  return best_site;
}

/// A whole pass placing every job on scan_best's site.
template <typename ScoreFn>
void scan_pass(const sim::SchedulerContext& context,
               const security::RiskPolicy& policy,
               std::vector<sim::NodeAvailability>& avail,
               std::vector<sim::Assignment>& out, ScoreFn&& score) {
  begin_pass(context, avail, out);
  const security::RiskCutoff cutoff(policy, context.lambda);
  const auto pick = [&](const sim::BatchJob& job) {
    return scan_best(context, cutoff, avail, job, score);
  };
  single_pass(context, avail, out, pick, [](sim::SiteId) {});
}

/// MCT without the site trees (after begin_pass). Every completion is a
/// start-row entry plus an exec cell, infinity where the job cannot fit or
/// the risk cutoff bars the site, and the strict-< argmin over them is
/// scan_best's site.
/// A job with a deficit inside the cutoff's bracket (or a NaN one) is
/// rescanned by scan_best, which runs the exact test.
void mct_scan_pass(const sim::SchedulerContext& context,
                   const security::RiskCutoff& cutoff,
                   HeuristicScratch& scratch,
                   std::vector<sim::Assignment>& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  scan::StartRows& starts = scratch.starts;
  starts.build(context);
  const security::RiskCutoff secure(security::RiskPolicy::secure(),
                                    context.lambda);
  const auto completion = [&](const sim::BatchJob& job,
                              const sim::JobExecRow& exec, std::size_t s,
                              const sim::NodeAvailability& avail) {
    return scan::completion(avail, job, exec[s], context.now);
  };
  const std::size_t n_sites = context.sites.size();
  const auto pick = [&](const sim::BatchJob& job) {
    const double* start = starts.row(job.nodes);
    if (start == nullptr) return sim::kInvalidSite;
    // A fail-stop retry answers to the secure cutoff, as in admissible().
    const security::RiskCutoff& risk = job.secure_only ? secure : cutoff;
    const sim::JobExecRow exec = context.exec_row(job);
    double best = kInf;
    std::size_t best_site = 0;
    bool undecided = false;
    for (std::size_t s = 0; s < n_sites; ++s) {
      const double deficit = job.demand - context.sites[s].security;
      undecided |= risk.undecided(deficit);
      const double value = risk.clears(deficit) ? start[s] + exec[s] : kInf;
      if (value < best) {
        best = value;
        best_site = s;
      }
    }
    if (undecided) {
      return scan_best(context, cutoff, scratch.avail, job, completion);
    }
    return best < kInf ? static_cast<sim::SiteId>(best_site)
                       : sim::kInvalidSite;
  };
  const auto committed = [&](sim::SiteId site) {
    starts.update(context, scratch.avail, site);
  };
  single_pass(context, scratch.avail, out, pick, committed);
}

}  // namespace

void MctScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  begin_pass(context, scratch_.avail, out);
  const security::RiskCutoff cutoff(policy_, context.lambda);
  if (!SiteTree::applies(context)) {
    // A small grid, or no exact subtree bound (raw ETC rows bound
    // nothing per subtree): scan every site.
    mct_scan_pass(context, cutoff, scratch_, out);
    return;
  }
  SiteTree& tree = scratch_.tree;
  tree.build(context);
  const auto pick = [&](const sim::BatchJob& job) {
    return tree.best_site(context, cutoff, job);
  };
  const auto committed = [&](sim::SiteId site) {
    tree.update(context, scratch_.avail, site);
  };
  single_pass(context, scratch_.avail, out, pick, committed);
}

void MetScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  scan_pass(context, policy_, scratch_.avail, out,
            [](const sim::BatchJob&, const sim::JobExecRow& exec,
               std::size_t s, const sim::NodeAvailability&) {
              return exec[s];
            });
}

void OlbScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  scan_pass(context, policy_, scratch_.avail, out,
            [&](const sim::BatchJob& job, const sim::JobExecRow&,
                std::size_t, const sim::NodeAvailability& avail) {
              return scan::start_time(avail, job, context.now);
            });
}

}  // namespace gridsched::sched
