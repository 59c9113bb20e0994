#include "sim/process/security_failure_process.hpp"

#include <algorithm>

#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace gridsched::sim {

void SecurityFailureProcess::dispatch(SimKernel& kernel, JobId job_id,
                                      SiteId site_id, Time now) {
  Job& job = kernel.job(job_id);
  GridSite& site = kernel.sites()[site_id];
  const EngineConfig& config = kernel.config();

  const double exec =
      kernel.exec_model().exec(job.id, job.work, site_id, site.speed());
  const NodeAvailability::Window window = site.dispatch(job.nodes, exec, now);

  ++job.attempts;
  const Attempt& attempt =
      kernel.start_attempt(job_id, window, exec, site_id, job.attempts);
  job.state = JobState::kDispatched;
  if (job.first_start < 0.0) job.first_start = window.start;
  job.last_start = window.start;

  const double p_fail =
      security::failure_probability(job.demand, site.security(), config.lambda);
  // Common random numbers: the failure draw for (job, attempt) is a pure
  // hash of (seed, job, attempt), independent of everything the scheduler
  // did before. Identical placements therefore fail identically under every
  // algorithm, which removes a large cross-algorithm noise term from the
  // paired comparisons the paper makes (README "Model parameters").
  util::SplitMix64 draw(config.seed ^
                        0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(job_id) + 1) ^
                        0xc2b2ae3d27d4eb4fULL * (job.attempts + 1ULL));
  const double failure_ticket = static_cast<double>(draw.next() >> 11) *
      0x1.0p-53;
  bool will_fail = false;
  if (p_fail > 0.0) {
    ++kernel.counters().risky_attempts;
    job.took_risk = true;
    will_fail = failure_ticket < p_fail;
  }

  Event end;
  end.kind = EventKind::kJobEnd;
  end.job = job_id;
  end.site = site_id;
  end.attempt = attempt.serial;
  if (will_fail) {
    double fraction = 1.0;
    if (config.detection == FailureDetection::kUniformFraction) {
      fraction = static_cast<double>(draw.next() >> 11) * 0x1.0p-53;
    } else if (config.detection == FailureDetection::kImmediate) {
      fraction = 0.0;
    }
    // Avoid a zero-length attempt so failure times are strictly after start.
    fraction = std::max(fraction, 1e-6);
    end.time = window.start + exec * fraction;
    end.is_failure = true;
  } else {
    end.time = window.end;
    end.is_failure = false;
  }
  kernel.push_event(end);
  kernel.notify_dispatch(job_id, site_id, window, exec, attempt.serial);
}

void SecurityFailureProcess::handle(SimKernel& kernel, const Event& event) {
  // A retired job's slot may already belong to another job; an end event
  // for it is necessarily stale — the job completed
  // elsewhere after the attempt this end belongs to was revoked.
  if (kernel.is_retired(event.job)) return;
  Job& job = kernel.job(event.job);
  const Attempt& attempt = kernel.attempt(event.job);
  // A site-down revocation deactivates the attempt (and a re-dispatch bumps
  // the serial) but cannot remove the already-queued end event; drop it.
  if (!attempt.active || attempt.serial != event.attempt) return;
  if (event.is_failure) {
    ++kernel.counters().failure_events;
    ++job.failures;
    job.secure_only = true;  // fail-stop: never risk again
    kernel.notify_attempt_failure(event.job, attempt.site, event.time);
    // Give the unused tail of the reservation back to the site, keyed by
    // the exact stored window end (recomputing start + exec would rely on
    // bitwise float equality against the profile; see
    // SimKernel::revoke_attempt). A node is unreclaimable only when a
    // later batch cycle already stacked the next reservation onto it;
    // count both outcomes so a zero-node release is visible instead of
    // silently dropped.
    const unsigned released = kernel.revoke_attempt(event.job, event.time);
    kernel.counters().released_nodes += released;
    kernel.counters().unreleased_nodes += job.nodes - released;
    kernel.request_cycle(event.time);
  } else {
    kernel.stop_attempt(event.job);
    job.state = JobState::kCompleted;
    job.finish = event.time;
    job.final_site = attempt.site;
    kernel.sites()[attempt.site].account_busy(job.nodes, attempt.exec);
    kernel.observe_finish(event.time);
    ++kernel.counters().completed_jobs;
    kernel.notify_job_complete(event.job, attempt.site, event.time);
    // Fold newly-retirable jobs into the metric accumulator (recycling
    // their slots) after observers saw the
    // completion — observers address jobs by id and must see live state.
    kernel.retire_completed();
  }
}

}  // namespace gridsched::sim
