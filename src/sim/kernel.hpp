// Event-driven simulation kernel. SimKernel owns only the generic
// machinery — event queue, clock, deterministic FIFO tie-breaking, shared
// run state (job slots, sites, attempts, pending queue, counters) and the
// site-availability mask — while every dynamic process of the simulated
// grid (job arrivals, periodic batch scheduling, security failures, site
// churn) is a pluggable SimProcess that registers for the event kinds it
// owns. sim::Engine (engine.hpp) is the compatibility facade that wires
// the paper's standard process set onto a kernel.
//
// Job storage comes in two modes, selected by the constructor:
//
//  - retained (vector ctor): every job is materialised up front and slot
//    index == job id, exactly like the pre-streaming kernel — all existing
//    callers (and their artifacts) are bit-identical.
//  - streaming (JobStream ctor): jobs are admitted lazily, one arrival
//    ahead of the clock, into a recycled slot table. A completed job
//    retires into the RetirementAccumulator as soon as every lower id has
//    retired (in-order retirement frontier), freeing its slot — resident
//    job state is O(active jobs), not O(total), which is what opens
//    million-job workloads (ROADMAP "Streaming-kernel invariants").
//
// In both modes jobs retire in id order through the same accumulator, so
// metrics::compute_metrics produces bit-identical sums, and arrival events
// carry reserved sequence numbers (seq == job id) so eager and lazy
// injection pop in the identical (time, seq) order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/retirement.hpp"
#include "security/security.hpp"
#include "sim/event_queue.hpp"
#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/observer.hpp"
#include "sim/site.hpp"
#include "util/cancel.hpp"
#include "workload/stream.hpp"

namespace gridsched::sim {

class SimKernel;

/// Diagnostic text for runs that end with incomplete jobs: names the
/// unfinished count, the first few job ids (with their states) and the
/// simulation time. Shared by the kernel's terminal error and
/// metrics::compute_metrics so both failure surfaces stay equally
/// actionable.
std::string describe_unfinished(const std::vector<Job>& jobs, Time sim_time);

/// When a doomed risky run is detected as failed (DESIGN.md S4).
enum class FailureDetection {
  kAtEnd,            ///< after the full execution window
  kUniformFraction,  ///< after U(0,1) of the execution window
  kImmediate,        ///< at launch (IDS flags the job as it starts)
};

struct EngineConfig {
  /// Scheduling-cycle period (seconds). Jobs accumulate between cycles.
  Time batch_interval = 2000.0;
  /// Eq. 1 coefficient used for the *actual* failure draws.
  double lambda = security::kDefaultLambda;
  FailureDetection detection = FailureDetection::kUniformFraction;
  /// Seed for failure draws, detection fractions and churn timelines.
  std::uint64_t seed = 1;
  /// Reject workloads containing a job no site could ever run safely
  /// (such a job could starve forever after a failure).
  bool validate_feasibility = true;
  /// Abort if this many consecutive non-empty batches make no progress.
  std::size_t max_idle_cycles = 10000;
  /// Cooperative cancellation (non-owning; may be null). The kernel polls
  /// the token at every batch-cycle boundary and aborts the run with
  /// util::CancelledError when it was cancelled or its wall-clock
  /// deadline expired — the campaign layer's per-cell watchdog. A null
  /// token costs a single branch per cycle.
  const util::CancelToken* cancel = nullptr;
};

/// Aggregate outcome counters kept by the kernel while it runs; per-job
/// details live in the Job records themselves.
struct EngineCounters {
  std::size_t completed_jobs = 0;
  std::size_t failure_events = 0;     ///< failure detections (attempts)
  std::size_t risky_attempts = 0;     ///< dispatches with P(fail) > 0
  std::size_t batch_invocations =
      0;  ///< scheduler calls with a non-empty batch
  double scheduler_seconds = 0.0;     ///< wall time in schedule_into()
  /// Node reservation tails reclaimed by failure releases.
  std::size_t released_nodes = 0;
  /// Reserved tails a failure release could NOT reclaim because a later
  /// reservation had already been stacked onto the node (its free time
  /// moved past the stored window end). Not stranded capacity — the tail
  /// is committed to the next job — but surfaced so a zero-node release
  /// is visible instead of silently ignored.
  std::size_t unreleased_nodes = 0;
  // --- site-churn process ---
  std::size_t site_down_events = 0;   ///< kSiteDown occurrences
  std::size_t site_up_events = 0;     ///< kSiteUp occurrences
  /// Attempts revoked because their site went down (per-job counts live in
  /// Job::interruptions).
  std::size_t interrupted_attempts = 0;
  /// Reservation tails reclaimed / not reclaimable by site-down
  /// revocations (same release-by-stored-window accounting as the failure
  /// counters above; an unreleased tail here is a reservation stacked
  /// behind the revoked one on the same node).
  std::size_t churn_released_nodes = 0;
  std::size_t churn_unreleased_nodes = 0;
};

/// The current attempt of a job: the reservation committed at dispatch.
/// `window.end` is the exact stored free time the site must be released
/// against after a failure or revocation (recomputing start + exec would
/// rely on bitwise float equality).
struct Attempt {
  NodeAvailability::Window window;
  double exec = 0.0;
  SiteId site = kInvalidSite;
  /// Serial of this attempt (== Job::attempts at dispatch); kJobEnd events
  /// carry it so ends of revoked attempts are dropped as stale.
  unsigned serial = 0;
  bool active = false;
};

/// One dynamic process of the simulation. A process registers the event
/// kinds it owns (routing is exclusive: exactly one process per kind may
/// be registered), seeds its initial events in start(), and mutates the
/// shared kernel state in handle().
class SimProcess {
 public:
  virtual ~SimProcess() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Event kinds routed to this process. Must stay constant.
  [[nodiscard]] virtual std::span<const EventKind> owned_kinds()
      const noexcept = 0;

  /// Called once, in registration order, before the event loop.
  virtual void start(SimKernel& kernel) { (void)kernel; }

  /// Handle one event whose kind this process owns.
  virtual void handle(SimKernel& kernel, const Event& event) = 0;
};

/// How a validated (job, site) placement turns into a reservation and an
/// end event. Implemented by SecurityFailureProcess (which owns the
/// failure draws); BatchCycleProcess calls it for each assignment.
class DispatchModel {
 public:
  virtual ~DispatchModel() = default;
  virtual void dispatch(SimKernel& kernel, JobId job, SiteId site,
                        Time now) = 0;
};

/// The kernel: event queue + clock + shared state + routing. Construction
/// validates the workload exactly like the former monolithic Engine; the
/// caller registers processes (non-owning) and calls run().
class SimKernel {
 public:
  /// Retained mode: materialise `jobs` up front (slot == id). Identical
  /// behaviour and artifacts to the pre-streaming kernel.
  SimKernel(std::vector<SiteConfig> sites, std::vector<Job> jobs,
            EngineConfig config = {}, ExecModel exec_model = {});

  /// Streaming mode: pull jobs from `stream` on demand and recycle slots
  /// as jobs retire; resident job state is O(active). Feasibility is
  /// validated per admission (O(1) via a precomputed best-security-per-
  /// node-count table) and arrivals must be nondecreasing.
  SimKernel(std::vector<SiteConfig> sites,
            std::unique_ptr<workload::JobStream> stream,
            EngineConfig config = {}, ExecModel exec_model = {});

  /// Register a process and route its owned kinds to it. Throws
  /// std::logic_error if a kind is already routed or run() has started.
  void add_process(SimProcess& process);

  /// Run the event loop to completion (all jobs finished). Throws on
  /// scheduler protocol violations and if the queue drains with unfinished
  /// jobs. May be called once.
  void run();

  // --- shared state, mutable for processes ---
  /// The job slot table. Retained mode: all jobs, slot == id. Streaming
  /// mode: live slots only (recycled slots hold stale retired data until
  /// reused) — processes address jobs by id via job()/attempt(); only
  /// slot-parallel scans (timeseries busy profile, churn victim sweep)
  /// index this directly, always gated on Attempt::active.
  [[nodiscard]] std::vector<Job>& jobs() noexcept { return jobs_; }
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::vector<GridSite>& sites() noexcept { return sites_; }
  [[nodiscard]] const std::vector<GridSite>& sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] std::vector<Attempt>& attempts() noexcept { return attempts_; }
  [[nodiscard]] const std::vector<Attempt>& attempts() const noexcept {
    return attempts_;
  }
  [[nodiscard]] std::vector<JobId>& pending() noexcept { return pending_; }
  [[nodiscard]] const std::vector<JobId>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] EngineCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ExecModel& exec_model() const noexcept {
    return exec_model_;
  }

  // --- job identity (id -> slot) ---
  /// Total jobs this run will simulate (stream size in streaming mode).
  [[nodiscard]] std::size_t total_jobs() const noexcept { return total_jobs_; }
  /// Job / attempt by id. Valid for live ids only: admitted and not yet
  /// retired (retained mode never retires slots, so any id works there).
  [[nodiscard]] Job& job(JobId id) noexcept {
    return jobs_[slot_of_[id & slot_mask_]];
  }
  [[nodiscard]] const Job& job(JobId id) const noexcept {
    return jobs_[slot_of_[id & slot_mask_]];
  }
  [[nodiscard]] Attempt& attempt(JobId id) noexcept {
    return attempts_[slot_of_[id & slot_mask_]];
  }
  [[nodiscard]] const Attempt& attempt(JobId id) const noexcept {
    return attempts_[slot_of_[id & slot_mask_]];
  }
  /// True once `id` has been folded into the retirement accumulator (its
  /// slot may already belong to another job). Guards stale end events.
  [[nodiscard]] bool is_retired(JobId id) const noexcept {
    return id < retire_frontier_;
  }
  /// Ids retired so far == the in-order retirement frontier.
  [[nodiscard]] std::size_t retired_jobs() const noexcept {
    return retire_frontier_;
  }
  /// Streaming metric sums over retired jobs (all jobs, post-run).
  [[nodiscard]] const metrics::RetirementAccumulator& retirement()
      const noexcept {
    return retired_;
  }
  /// High-water slot count (== total jobs in retained mode; O(active) in
  /// streaming mode — the streaming scale tests pin this).
  [[nodiscard]] std::size_t peak_slots() const noexcept { return jobs_.size(); }

  /// Streaming mode: admit the next job from the cursor into a slot and
  /// fill `arrival` with its kJobArrival event; false when exhausted (or
  /// in retained mode). Called by ArrivalProcess, one arrival ahead.
  bool admit_next(Event& arrival);

  /// Advance the retirement frontier over completed jobs (in id order),
  /// folding each into the accumulator and (streaming mode) freeing its
  /// slot. Called after every completion.
  void retire_completed();

  /// Kernel-level variant of sim::describe_unfinished that works in both
  /// storage modes (byte-identical to the free function in retained mode).
  [[nodiscard]] std::string describe_unfinished(Time sim_time) const;

  /// max over jobs of finish time (0 before run / for empty workloads).
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }
  void observe_finish(Time time) noexcept {
    makespan_ = makespan_ < time ? time : makespan_;
  }

  // --- event machinery ---
  void push_event(Event event) { events_.push(event); }
  /// Push with a reserved sequence number (arrival events use seq == job
  /// id; see EventQueue::reserve_seqs).
  void push_event_reserved(Event event, std::uint64_t seq) {
    events_.push_reserved(event, seq);
  }

  /// Schedule the next batch cycle strictly after `now` if none is queued.
  /// Cycle times derive from an integer cycle index (index *
  /// batch_interval), never from accumulated floats, so a cycle can never
  /// land at or before the current time.
  void request_cycle(Time now);
  /// BatchCycleProcess acknowledges a fired cycle (clears the queued flag).
  void cycle_fired() noexcept { cycle_scheduled_ = false; }

  // --- run-state bookkeeping ---
  [[nodiscard]] bool work_remains() const noexcept {
    return !pending_.empty() || arrivals_remaining_ > 0 || running_ > 0;
  }
  void note_arrival() noexcept { --arrivals_remaining_; }
  void job_started() noexcept { ++running_; }
  void job_stopped() noexcept { --running_; }

  /// Deactivate `job`'s current attempt at `now` and return it to the
  /// pending queue: account the node-seconds actually burned (none for a
  /// reservation whose window had not started), release the reservation
  /// tail against the *stored* window end, and mark the job pending. The
  /// one revocation primitive shared by failure releases and site-down
  /// revocations — their release accounting must never diverge. Returns
  /// the reclaimed node count (the caller bumps its own
  /// released/unreleased counters and requests a cycle).
  unsigned revoke_attempt(JobId job, Time now);

  // --- site availability mask (owned by the churn process) ---
  [[nodiscard]] bool site_usable(std::size_t site) const noexcept {
    return site_up_[site] != 0;
  }
  void set_site_up(std::size_t site, bool up) noexcept {
    site_up_[site] = up ? 1 : 0;
  }
  /// The mask as handed to SchedulerContext (1 = usable).
  [[nodiscard]] const std::vector<std::uint8_t>& site_mask() const noexcept {
    return site_up_;
  }

  // --- observation (null observer = zero-cost fast path) ---
  /// Attach a passive observer (nullptr detaches). Observers are
  /// non-owning and must outlive run(). With none attached every notify
  /// point is a single branch on a null pointer, and observed runs must
  /// stay bit-identical to unobserved ones (observers are read-only).
  void set_observer(KernelObserver* observer) noexcept {
    observer_ = observer;
  }
  [[nodiscard]] KernelObserver* observer() const noexcept { return observer_; }

  /// Notification helpers for processes (null-checked, inline).
  void notify_dispatch(JobId job, SiteId site,
                       const NodeAvailability::Window& window, double exec,
                       unsigned serial) const {
    if (observer_) observer_->on_dispatch(*this, job, site, window, exec,
                                          serial);
  }
  void notify_job_complete(JobId job, SiteId site, Time time) const {
    if (observer_) observer_->on_job_complete(*this, job, site, time);
  }
  void notify_attempt_failure(JobId job, SiteId site, Time time) const {
    if (observer_) observer_->on_attempt_failure(*this, job, site, time);
  }
  void notify_cycle(Time now, std::size_t batch_jobs, std::size_t assigned,
                    double scheduler_wall_seconds) const {
    if (observer_) {
      observer_->on_cycle(*this, now, batch_jobs, assigned,
                          scheduler_wall_seconds);
    }
  }

 private:
  SimKernel(std::vector<SiteConfig> sites, EngineConfig config,
            ExecModel exec_model, std::size_t total_jobs);

  void validate_workload() const;
  void validate_admitted(const Job& job) const;
  void grow_slot_ring();

  std::vector<GridSite> sites_;
  std::vector<Job> jobs_;  ///< slot table (all jobs in retained mode)
  EngineConfig config_;
  ExecModel exec_model_;

  EventQueue events_;
  std::vector<JobId> pending_;
  std::vector<Attempt> attempts_;  ///< per slot, current attempt
  std::vector<std::uint8_t> site_up_;
  EngineCounters counters_;
  Time makespan_ = 0.0;
  std::size_t arrivals_remaining_ = 0;
  std::size_t running_ = 0;
  bool cycle_scheduled_ = false;
  /// 1 + index of the last scheduled batch cycle (see request_cycle).
  std::uint64_t next_cycle_index_ = 0;
  std::vector<SimProcess*> processes_;
  SimProcess* routes_[kEventKindCount] = {};
  KernelObserver* observer_ = nullptr;
  bool ran_ = false;

  // --- job identity / streaming state ---
  bool stream_mode_ = false;
  std::unique_ptr<workload::JobStream> stream_;
  std::size_t total_jobs_ = 0;
  std::size_t admitted_ = 0;        ///< ids [0, admitted_) hold a slot
  std::size_t retire_frontier_ = 0; ///< ids [0, frontier) are retired
  Time last_arrival_ = 0.0;         ///< sorted-stream admission guard
  /// id -> slot ring (power-of-two capacity >= live-id window); identity
  /// in retained mode.
  std::vector<std::uint32_t> slot_of_;
  std::uint32_t slot_mask_ = 0;
  std::vector<std::uint32_t> free_slots_;  ///< recycled slots (stream mode)
  /// Per-admission feasibility table: best_security_[k] = max security
  /// level over sites with >= k nodes (-1 when no site fits k).
  std::vector<double> best_security_;
  metrics::RetirementAccumulator retired_;
};

}  // namespace gridsched::sim
