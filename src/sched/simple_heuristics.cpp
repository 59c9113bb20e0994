// MCT, MET and OLB: single-pass heuristics that place jobs in batch order.
#include <limits>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/scan.hpp"

namespace gridsched::sched {

namespace {

/// Validates the context and resets the working profiles and the output.
void begin_pass(const sim::SchedulerContext& context,
                std::vector<sim::NodeAvailability>& avail,
                std::vector<sim::Assignment>& out) {
  scan::check_context(context);
  avail = context.avail;
  out.clear();
  out.reserve(context.jobs.size());
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
                      const security::RiskPolicy& policy,
                      const std::vector<sim::NodeAvailability>& avail,
                      const sim::BatchJob& job, ScoreFn&& score) {
  sim::SiteId best_site = sim::kInvalidSite;
  double best_score = std::numeric_limits<double>::infinity();
  const sim::JobExecRow exec = context.exec_row(job);
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (!scan::fits(context, job, s)) continue;
    const double value = score(job, exec, s, avail[s]);
    if (value < best_score && admissible(context, job, s, policy)) {
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
  const auto pick = [&](const sim::BatchJob& job) {
    return scan_best(context, policy, avail, job, score);
  };
  single_pass(context, avail, out, pick, [](sim::SiteId) {});
}

}  // namespace

void MctScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  if (!SiteTree::applies(context)) {
    // A small grid, or no exact subtree bound (raw ETC rows bound
    // nothing per subtree): scan every site.
    scan_pass(context, policy_, scratch_.avail, out,
              [&](const sim::BatchJob& job, const sim::JobExecRow& exec,
                  std::size_t s, const sim::NodeAvailability& avail) {
                return scan::completion(avail, job, exec[s], context.now);
              });
    return;
  }
  begin_pass(context, scratch_.avail, out);
  SiteTree& tree = scratch_.tree;
  tree.build(context);
  const auto pick = [&](const sim::BatchJob& job) {
    return tree.best_site(context, policy_, job);
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
