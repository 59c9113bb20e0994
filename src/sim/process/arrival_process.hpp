// Job-arrival process: injects every workload job at its arrival time and
// queues it for the next batch cycle. Arrival times come from the workload
// itself (the synth generators own the stochastic arrival models), so this
// process draws no randomness.
#pragma once

#include "sim/event_queue.hpp"

namespace gridsched::sim {

class SimKernel;

class ArrivalProcess {
 public:
  /// Admit the first job and queue its arrival.
  static void start(SimKernel& kernel);
  /// A kJobArrival: queue the job and admit its successor.
  static void handle(SimKernel& kernel, const Event& event);
};

}  // namespace gridsched::sim
