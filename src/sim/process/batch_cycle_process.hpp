// Periodic batch-scheduling process (the paper's Fig. 1 online model):
// every kBatchCycle it snapshots the kernel state into a SchedulerContext
// (pending batch, committed availability profiles, site mask), invokes the
// BatchScheduler, validates the returned assignments against the protocol
// (range, duplicates, node fit, fail-stop rule, site mask) and hands each
// accepted placement to SecurityFailureProcess::dispatch.
#pragma once

#include "sim/event_queue.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sim {

class SimKernel;

class BatchCycleProcess {
 public:
  /// A kBatchCycle: run `scheduler` over the pending batch and request the
  /// next cycle while work remains.
  void handle(SimKernel& kernel, BatchScheduler& scheduler,
              const Event& event);

 private:
  void run_cycle(SimKernel& kernel, BatchScheduler& scheduler, Time now);

  std::size_t idle_cycles_ = 0;
  // Persistent cycle scratch: the context snapshot, assignment list and
  // per-batch-index marks are rebuilt every cycle but keep their heap
  // buffers, so a steady-state cycle performs no allocations (the
  // invariants tests pin this with a counting allocator).
  SchedulerContext context_;
  std::vector<Assignment> assignments_;
  std::vector<std::uint8_t> assigned_;
  bool context_static_ready_ = false;
};

}  // namespace gridsched::sim
