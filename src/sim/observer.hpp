// Read-only observation hooks on the simulation kernel. A KernelObserver
// receives callbacks at the kernel's decision points — every event,
// dispatches, completions, failure detections, revocations, batch cycles
// — and must never mutate simulation state: with no observer attached
// (the default) every notification compiles down to a single null check,
// and an attached observer must leave the run bit-identical to an
// unobserved one. Concrete observers live in src/obs/ (trace recording,
// metric collection); the interface lives here so the kernel depends on
// nothing outside sim/.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/site.hpp"
#include "sim/types.hpp"

namespace gridsched::sim {

class SimKernel;

/// Passive hook on SimKernel. All callbacks default to no-ops so
/// observers override only what they need. Callbacks receive the kernel
/// by const reference — observation must never steer the simulation.
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;

  /// Before the first event is popped (initial arrival and churn events
  /// already queued).
  virtual void on_run_start(const SimKernel& kernel) { (void)kernel; }

  /// Every event popped from the queue, before it is routed. Stale
  /// kJobEnd events (revoked attempts) are reported here too — the
  /// observer sees the raw event stream, exactly as the kernel does.
  virtual void on_event(const SimKernel& kernel, const Event& event) {
    (void)kernel;
    (void)event;
  }

  /// A job was placed on a site: reservation committed, end event queued.
  /// `serial` is the attempt serial (Job::attempts at dispatch).
  virtual void on_dispatch(const SimKernel& kernel, JobId job, SiteId site,
                           const NodeAvailability::Window& window, double exec,
                           unsigned serial) {
    (void)kernel;
    (void)job;
    (void)site;
    (void)window;
    (void)exec;
    (void)serial;
  }

  /// A job finished successfully at `time` on `site`.
  virtual void on_job_complete(const SimKernel& kernel, JobId job, SiteId site,
                               Time time) {
    (void)kernel;
    (void)job;
    (void)site;
    (void)time;
  }

  /// A security failure was detected at `time`; the attempt on `site` is
  /// about to be revoked (on_revoke follows from the same event).
  virtual void on_attempt_failure(const SimKernel& kernel, JobId job,
                                  SiteId site, Time time) {
    (void)kernel;
    (void)job;
    (void)site;
    (void)time;
  }

  /// `job`'s active attempt on `site` was revoked at `time` and the job
  /// returned to the pending queue. Fired for both failure releases and
  /// site-down interruptions (after on_attempt_failure for the former).
  virtual void on_revoke(const SimKernel& kernel, JobId job, SiteId site,
                         Time time) {
    (void)kernel;
    (void)job;
    (void)site;
    (void)time;
  }

  /// A non-empty batch cycle ran at `now`: `batch_jobs` pending jobs were
  /// offered, `assigned` placed. `scheduler_wall_seconds` is host wall
  /// time in schedule_into() — non-deterministic by nature; trace/metric
  /// consumers that promise byte-stable output must not record it.
  virtual void on_cycle(const SimKernel& kernel, Time now,
                        std::size_t batch_jobs, std::size_t assigned,
                        double scheduler_wall_seconds) {
    (void)kernel;
    (void)now;
    (void)batch_jobs;
    (void)assigned;
    (void)scheduler_wall_seconds;
  }

  /// After the event loop ends (all jobs completed), before run() returns.
  virtual void on_run_end(const SimKernel& kernel) { (void)kernel; }
};

/// Fans every callback out to several observers, in add() order. Lets a
/// run attach a trace recorder and a metric collector at once through the
/// kernel's single observer slot. Pointers are non-owning; null adds are
/// ignored so callers can pass optional observers unconditionally.
class KernelObserverTee final : public KernelObserver {
 public:
  void add(KernelObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  [[nodiscard]] bool empty() const noexcept { return observers_.empty(); }

  void on_run_start(const SimKernel& kernel) override {
    for (KernelObserver* o : observers_) o->on_run_start(kernel);
  }
  void on_event(const SimKernel& kernel, const Event& event) override {
    for (KernelObserver* o : observers_) o->on_event(kernel, event);
  }
  void on_dispatch(const SimKernel& kernel, JobId job, SiteId site,
                   const NodeAvailability::Window& window, double exec,
                   unsigned serial) override {
    for (KernelObserver* o : observers_) {
      o->on_dispatch(kernel, job, site, window, exec, serial);
    }
  }
  void on_job_complete(const SimKernel& kernel, JobId job, SiteId site,
                       Time time) override {
    for (KernelObserver* o : observers_) {
      o->on_job_complete(kernel, job, site, time);
    }
  }
  void on_attempt_failure(const SimKernel& kernel, JobId job, SiteId site,
                          Time time) override {
    for (KernelObserver* o : observers_) {
      o->on_attempt_failure(kernel, job, site, time);
    }
  }
  void on_revoke(const SimKernel& kernel, JobId job, SiteId site,
                 Time time) override {
    for (KernelObserver* o : observers_) o->on_revoke(kernel, job, site, time);
  }
  void on_cycle(const SimKernel& kernel, Time now, std::size_t batch_jobs,
                std::size_t assigned, double scheduler_wall_seconds) override {
    for (KernelObserver* o : observers_) {
      o->on_cycle(kernel, now, batch_jobs, assigned, scheduler_wall_seconds);
    }
  }
  void on_run_end(const SimKernel& kernel) override {
    for (KernelObserver* o : observers_) o->on_run_end(kernel);
  }

 private:
  std::vector<KernelObserver*> observers_;
};

}  // namespace gridsched::sim
