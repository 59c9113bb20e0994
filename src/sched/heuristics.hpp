// The security-driven heuristic scheduler family (paper Section 2).
//
// Min-Min and Sufferage are the paper's two heuristics; Max-Min, MCT, MET
// and OLB are classic companions from the same literature (Braun et al.,
// paper ref [7]) provided as additional baselines. Each is instantiated
// with a RiskPolicy, yielding e.g. "Min-Min secure" / "Min-Min f-risky" /
// "Min-Min risky".
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sched/scan.hpp"
#include "sched/site_tree.hpp"
#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

/// Working state a heuristic keeps across cycles. Each call refills it by
/// assignment into existing capacity, so once it has grown to the run's
/// largest batch a scheduling cycle performs no heap allocation.
struct HeuristicScratch {
  /// One pending job's cached best completion time and site (Min-Min
  /// family); Sufferage also keeps the second-best value and its site.
  struct JobBest {
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    sim::SiteId best_site = sim::kInvalidSite;
    sim::SiteId second_site = sim::kInvalidSite;
  };

  /// Working copy of the context's availability profiles.
  std::vector<sim::NodeAvailability> avail;
  /// Batch indices of the jobs still pending (Min-Min family), ascending.
  std::vector<std::size_t> unassigned;
  /// Per-job cache (Min-Min family), indexed by batch index.
  std::vector<JobBest> best;
  /// MCT's branch-and-bound site trees (see SiteTree::applies).
  SiteTree tree;
  /// MCT's start rows where the trees do not apply.
  scan::StartRows starts;
};

/// Common state for the iterative list heuristics.
class HeuristicScheduler : public sim::BatchScheduler {
 public:
  explicit HeuristicScheduler(security::RiskPolicy policy) : policy_(policy) {}

  [[nodiscard]] const security::RiskPolicy& policy() const noexcept {
    return policy_;
  }

  [[nodiscard]] std::string name() const override {
    return base_name() + " " + security::to_string(policy_.mode());
  }

 protected:
  [[nodiscard]] virtual std::string base_name() const = 0;

  security::RiskPolicy policy_;
  HeuristicScratch scratch_;
};

/// Min-Min: repeatedly pick the (job, site) pair with the globally minimum
/// earliest completion time and commit it.
class MinMinScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Min-Min"; }
};

/// Max-Min: like Min-Min but commits the job whose best completion time is
/// the *largest* (large jobs first).
class MaxMinScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Max-Min"; }
};

/// Sufferage: commit the job that would suffer most (largest gap between
/// its second-best and best completion time) to its best site. A job with a
/// single admissible site has infinite sufferage.
class SufferageScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Sufferage"; }
};

/// MCT: jobs in batch order, each to the admissible site with the minimum
/// completion time. Where SiteTree::applies (a rank-1 execution model on a
/// wide grid) the site is found by a branch-and-bound query on the tree;
/// elsewhere by one branch-free pass over per-node-count start rows
/// (scan::StartRows) masked by the risk cutoff. Both give the scan's site.
class MctScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "MCT"; }
};

/// MET: jobs in batch order, each to the admissible site with the minimum
/// raw execution time (ignores queueing; classic load-imbalance baseline).
class MetScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "MET"; }
};

/// OLB: jobs in batch order, each to the admissible site whose required
/// nodes become idle earliest (ignores execution time).
class OlbScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "OLB"; }
};

}  // namespace gridsched::sched
