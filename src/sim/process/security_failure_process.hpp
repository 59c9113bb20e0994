// Security-failure process (paper Eq. 1 + fail-stop rescheduling): turns a
// validated placement into a reservation plus a kJobEnd event (success at
// the window end, or a failure detection inside it), and handles the ends —
// completing jobs or releasing the failed reservation's tail and re-queuing
// the job as a secure_only retry.
//
// RNG contract (common random numbers, README "Model
// parameters"): the failure draw
// for (job, attempt) is a pure hash of (config seed, job id, attempt
// number), independent of everything the scheduler did before, so
// identical placements fail identically under every algorithm. The process
// is therefore stateless.
#pragma once

#include "sim/event_queue.hpp"

namespace gridsched::sim {

class SimKernel;

class SecurityFailureProcess {
 public:
  /// Reserve `site` for `job` no earlier than `now`, draw the failure
  /// outcome, push the end event.
  static void dispatch(SimKernel& kernel, JobId job, SiteId site, Time now);

  /// A kJobEnd: complete the job, or release the failed reservation and
  /// re-queue the job as a secure_only retry.
  static void handle(SimKernel& kernel, const Event& event);
};

}  // namespace gridsched::sim
