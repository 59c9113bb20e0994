// Compatibility facade over the event-driven simulation kernel
// (sim/kernel.hpp): one Engine bundles the paper's standard process set —
// ArrivalProcess, BatchCycleProcess, SecurityFailureProcess and (when the
// workload carries churn parameters) SiteChurnProcess — onto a SimKernel,
// preserving the original monolithic Engine API. Code that composes its
// own process mix (custom dynamism, scripted outages) targets SimKernel
// directly; everything else keeps constructing an Engine.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sim {

/// Runs one simulation: jobs are injected at their arrival times, scheduled
/// in batches by the supplied BatchScheduler, executed on reservation-based
/// space-shared sites, possibly re-scheduled after security failures, and —
/// when churn parameters are present — interrupted and re-queued when their
/// site goes down.
class Engine {
 public:
  /// Jobs come from a cursor (workload/stream.hpp); the kernel keeps only
  /// O(active jobs) resident, recycling slots as jobs retire.
  /// `exec_model`: per-(job, site) execution times. A raw ETC matrix (rows
  /// keyed by stream position) is authoritative; the default model is the
  /// rank-1 work/speed fallback. `churn`: per-site up/down process
  /// parameters (empty, or all entries with mtbf/mttr <= 0, disables the
  /// churn process entirely).
  Engine(std::vector<SiteConfig> sites,
         std::unique_ptr<workload::JobStream> stream, EngineConfig config = {},
         ExecModel exec_model = {}, std::vector<SiteChurnParams> churn = {});

  /// Convenience overload: wraps `jobs` in a workload::MaterializedStream.
  /// Arrivals must be nondecreasing, as for any stream.
  Engine(std::vector<SiteConfig> sites, std::vector<Job> jobs,
         EngineConfig config = {}, ExecModel exec_model = {},
         std::vector<SiteChurnParams> churn = {});

  /// Run to completion (all jobs finished). The scheduler object must
  /// outlive the call. Throws on scheduler protocol violations.
  void run(BatchScheduler& scheduler);

  /// Attach a passive kernel observer (nullptr detaches; must outlive
  /// run()). Forwarded to SimKernel::set_observer — observers are
  /// read-only and a null observer costs one branch per notify point.
  void set_observer(KernelObserver* observer) noexcept {
    kernel_.set_observer(observer);
  }

  [[nodiscard]] const std::vector<GridSite>& sites() const noexcept {
    return kernel_.sites();
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return kernel_.counters();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return kernel_.config();
  }

  /// max over jobs of finish time (0 before run / for empty workloads).
  [[nodiscard]] Time makespan() const noexcept { return kernel_.makespan(); }

  /// The underlying kernel (diagnostics, tests).
  [[nodiscard]] const SimKernel& kernel() const noexcept { return kernel_; }

 private:
  SimKernel kernel_;
  std::vector<SiteChurnParams> churn_;
};

}  // namespace gridsched::sim
