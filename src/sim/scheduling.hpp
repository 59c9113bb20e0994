// The batch-scheduler interface the simulation engine invokes every
// scheduling cycle (the "on-line job scheduling system model" of Fig. 1).
// Heuristics (src/sched) and the GAs (src/core) implement BatchScheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "security/security.hpp"
#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/site.hpp"
#include "sim/types.hpp"

namespace gridsched::sim {

/// One job of the current batch, as visible to a scheduler. `nodes` sits
/// next to `id` so the two share 8 bytes and the row pointer keeps the
/// struct at 48 bytes.
struct BatchJob {
  JobId id = kInvalidJob;
  unsigned nodes = 1;
  double work = 0.0;
  double demand = 0.0;
  Time arrival = 0.0;
  /// Fail-stop retry: must go to a site with SL >= SD, whatever the mode.
  bool secure_only = false;
  /// The job's raw ETC row, one cell per context site, or null for the
  /// rank-1 `work / speed` law. Authoritative when set: schedulers resolve
  /// exec times through it (SchedulerContext::exec_row), never recompute
  /// work / speed themselves. The kernel fills it at snapshot time with a
  /// row of its row pool (the job stream's rows); it is valid for the
  /// duration of one schedule_into call.
  const double* etc_row = nullptr;
};
static_assert(sizeof(BatchJob) == 48,
              "BatchJob must stay 48 bytes (the kernel snapshots every "
              "pending job into one each cycle)");

/// One batch job's execution times by site index: the job's row and work,
/// plus the site configs whose speeds feed the rank-1 fallback.
struct JobExecRow {
  const double* cells;
  double work;
  const SiteConfig* sites;

  [[nodiscard]] double operator[](std::size_t s) const noexcept {
    return exec_time(cells, work, static_cast<SiteId>(s), sites[s].speed);
  }
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
  /// Eq. 1 coefficient of the run: the kernel's copy of
  /// EngineConfig::lambda, the one lambda every risk cutoff and GA rework
  /// term reads. Hand-assembled contexts get the default.
  double lambda = security::kDefaultLambda;

  [[nodiscard]] bool site_usable(std::size_t s) const noexcept {
    return site_up.empty() || site_up[s] != 0;
  }

  /// Batch job `job`'s execution times by site index: its `etc_row` when
  /// it carries one, else work / speed. Scans fetch the row before their
  /// site loop. Valid while the context is alive and its sites unchanged.
  [[nodiscard]] JobExecRow exec_row(const BatchJob& job) const noexcept {
    return {job.etc_row, job.work, sites.data()};
  }

  /// Execution time of batch job `job` on site index `s`.
  [[nodiscard]] double exec_time(const BatchJob& job,
                                 std::size_t s) const noexcept {
    return exec_row(job)[s];
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
