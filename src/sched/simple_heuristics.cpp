// MCT, MET and OLB: single-pass heuristics that place jobs in batch order.
#include <limits>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/scan.hpp"

namespace gridsched::sched {

namespace {

/// Shared single-pass skeleton: `score` returns the value to minimise for
/// a structurally feasible (job, site) pair given the current
/// availability; admissibility is checked only for strict improvements.
template <typename ScoreFn>
void single_pass(const sim::SchedulerContext& context,
                 const security::RiskPolicy& policy,
                 std::vector<sim::NodeAvailability>& avail,
                 std::vector<sim::Assignment>& out, ScoreFn&& score) {
  scan::check_context(context);
  avail = context.avail;
  out.clear();
  out.reserve(context.jobs.size());

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    sim::SiteId best_site = sim::kInvalidSite;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < context.sites.size(); ++s) {
      if (!scan::fits(context, job, s)) continue;
      const double value = score(job, s, avail[s]);
      if (value < best_score && admissible(context, job, s, policy)) {
        best_score = value;
        best_site = static_cast<sim::SiteId>(s);
      }
    }
    if (best_site == sim::kInvalidSite) continue;  // stays pending
    avail[best_site].reserve(job.nodes, context.exec_time(job, best_site),
                             context.now);
    out.push_back({j, best_site});
  }
}

}  // namespace

void MctScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, policy_, scratch_.avail, out,
              [&](const sim::BatchJob& job, std::size_t s,
                  const sim::NodeAvailability& avail) {
                return scan::completion(avail, job, context.exec_time(job, s),
                                        context.now);
              });
}

void MetScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, policy_, scratch_.avail, out,
              [&](const sim::BatchJob& job, std::size_t s,
                  const sim::NodeAvailability&) {
                return context.exec_time(job, s);
              });
}

void OlbScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, policy_, scratch_.avail, out,
              [&](const sim::BatchJob& job, std::size_t,
                  const sim::NodeAvailability& avail) {
                return scan::start_time(avail, job, context.now);
              });
}

}  // namespace gridsched::sched
