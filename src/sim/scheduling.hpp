// The batch-scheduler interface the simulation engine invokes every
// scheduling cycle (the "on-line job scheduling system model" of Fig. 1).
// Heuristics (src/sched) and the GAs (src/core) implement BatchScheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/site.hpp"
#include "sim/types.hpp"

namespace gridsched::sim {

/// One job of the current batch, as visible to a scheduler.
struct BatchJob {
  JobId id = kInvalidJob;
  double work = 0.0;
  unsigned nodes = 1;
  double demand = 0.0;
  Time arrival = 0.0;
  /// Fail-stop retry: must go to a site with SL >= SD, whatever the mode.
  bool secure_only = false;
};

/// Immutable snapshot handed to BatchScheduler::schedule_into. Site
/// availability profiles reflect every reservation committed so far.
struct SchedulerContext {
  Time now = 0.0;
  std::vector<SiteConfig> sites;
  std::vector<NodeAvailability> avail;  ///< parallel to `sites`
  std::vector<BatchJob> jobs;           ///< the pending batch
  /// Site availability mask, parallel to `sites` (1 = usable). A site
  /// masked out by the churn process (currently down) must never receive
  /// an assignment — the kernel rejects it as a protocol violation. Empty
  /// means every site is usable (hand-assembled contexts). Schedulers go
  /// through sched::admissible(context, ...) rather than reading this
  /// directly, so the mask and the risk filter can never disagree.
  std::vector<std::uint8_t> site_up;
  /// The engine's execution model. Raw ETC when the workload carries one
  /// (authoritative — schedulers must resolve exec times through it, never
  /// recompute work/speed themselves); rank-1 fallback otherwise.
  ExecModel exec;

  [[nodiscard]] bool site_usable(std::size_t s) const noexcept {
    return site_up.empty() || site_up[s] != 0;
  }

  /// Execution time of batch job `job` on site index `s`, resolved through
  /// the execution model (matrix rows are keyed by the job's global id).
  [[nodiscard]] double exec_time(const BatchJob& job,
                                 std::size_t s) const noexcept {
    return exec.exec(job.id, job.work, static_cast<SiteId>(s), sites[s].speed);
  }
};

/// One placement decision. The engine dispatches assignments in the order
/// returned, which fixes the reservation order (heuristics exploit this).
struct Assignment {
  std::size_t job_index = 0;  ///< index into SchedulerContext::jobs
  SiteId site = kInvalidSite;

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

class BatchScheduler {
 public:
  virtual ~BatchScheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Map (a subset of) the batch to sites, replacing the contents of `out`
  /// with the assignments. Jobs omitted remain pending and reappear in the
  /// next cycle's batch. The one override point: the engine's batch cycle
  /// passes its persistent assignment buffer, so a scheduler that keeps its
  /// own working state across calls runs the steady-state event loop
  /// heap-free.
  virtual void schedule_into(const SchedulerContext& context,
                             std::vector<Assignment>& out) = 0;

  /// Convenience form of schedule_into returning a fresh vector.
  std::vector<Assignment> schedule(const SchedulerContext& context) {
    std::vector<Assignment> out;
    schedule_into(context, out);
    return out;
  }
};

}  // namespace gridsched::sim
