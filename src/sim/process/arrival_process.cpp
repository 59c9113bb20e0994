#include "sim/process/arrival_process.hpp"

#include "sim/kernel.hpp"

namespace gridsched::sim {

void ArrivalProcess::start(SimKernel& kernel) {
  // Admit only the first job; each arrival then admits its successor
  // (handle below), so at most one un-arrived job is ever resident.
  // Arrival events use their reserved seq (== job id).
  Event arrival;
  if (kernel.admit_next(arrival)) {
    kernel.push_event_reserved(arrival, arrival.job);
  }
}

void ArrivalProcess::handle(SimKernel& kernel, const Event& event) {
  kernel.note_arrival();
  kernel.pending().push_back(event.job);
  // Pull the next job. Its arrival is >= this one (sorted-stream contract,
  // checked at admission) and its reserved seq is larger, so pushing it
  // now cannot perturb the pop order.
  Event next;
  if (kernel.admit_next(next)) {
    kernel.push_event_reserved(next, next.job);
  }
  kernel.request_cycle(event.time);
}

}  // namespace gridsched::sim
