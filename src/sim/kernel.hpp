// Event-driven simulation kernel: the paper's online model (Fig. 1) as one
// class. SimKernel owns the event queue, clock, deterministic FIFO
// tie-breaking and all run state (job slots, sites, attempts, pending
// queue, counters, site-availability mask, batch-cycle scratch, churn
// timelines); run() sends each popped event to a private handler through
// one switch over EventKind: job arrivals, the periodic batch scheduler,
// Eq. 1 security failures with fail-stop re-scheduling, and site churn.
// The scheduler handed to run() is the only extension point. Every
// mutator is private and observers receive the kernel by const reference,
// so nothing outside the kernel can steer a run.
//
// Jobs, and their raw ETC rows when the workload has them, come from a
// workload::JobStream cursor (a materialized job vector and its ETC matrix
// are wrapped in workload::MaterializedStream). They are admitted lazily,
// one arrival ahead of the clock, into a recycled slot table, and every
// admission is validated in O(1). A completed job retires into the
// RetirementAccumulator as soon as every lower id has retired (in-order
// retirement frontier), freeing its slot: resident job state is
// O(active jobs), not O(total), which is what opens million-job
// workloads. Retiring in id order keeps metrics::compute_metrics' sums in
// a fixed order.
//
// Pop order is a pure function of the workload: queued events pop by
// (time, push order), and the one admitted-but-not-yet-arrived job waits
// in an arrival slot outside the queue, popping ahead of every queued
// event at the same time. That is the order eager injection gives (all
// arrivals pushed first, so their sequence numbers precede every dynamic
// event's), without a heap push and pop per arrival.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/retirement.hpp"
#include "security/security.hpp"
#include "sim/event_queue.hpp"
#include "sim/job.hpp"
#include "sim/observer.hpp"
#include "sim/scheduling.hpp"
#include "sim/site.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"

namespace gridsched::sim {

/// When a doomed risky run is detected as failed (README "Model
/// parameters").
enum class FailureDetection {
  kAtEnd,            ///< after the full execution window
  kUniformFraction,  ///< after U(0,1) of the execution window
  kImmediate,        ///< at launch (IDS flags the job as it starts)
};

struct EngineConfig {
  /// Scheduling-cycle period (seconds). Jobs accumulate between cycles.
  Time batch_interval = 2000.0;
  /// Eq. 1 coefficient of the run: the failure draws use it, and the
  /// batch cycle hands it to every scheduler as SchedulerContext::lambda
  /// (the f-risky cutoff, the GA's pfail matrix). The only stored lambda.
  double lambda = security::kDefaultLambda;
  FailureDetection detection = FailureDetection::kUniformFraction;
  /// Seed for failure draws, detection fractions and churn timelines.
  std::uint64_t seed = 1;
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
/// details live in the Job records themselves. Each count has one source:
/// observers and metrics read these (and the retirement accumulator)
/// instead of re-tallying callbacks.
struct EngineCounters {
  /// Events popped from the queue, by EventKind (stale kJobEnd events and
  /// empty batch cycles included).
  std::array<std::size_t, kEventKindCount> events{};
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
  // --- site churn ---
  /// Attempts revoked because their site went down (per-job counts live in
  /// Job::interruptions).
  std::size_t interrupted_attempts = 0;
  /// Reservation tails reclaimed / not reclaimable by site-down
  /// revocations (same release-by-stored-window accounting as the failure
  /// counters above; an unreleased tail here is a reservation stacked
  /// behind the revoked one on the same node).
  std::size_t churn_released_nodes = 0;
  std::size_t churn_unreleased_nodes = 0;

  [[nodiscard]] std::size_t events_of(EventKind kind) const noexcept {
    return events[static_cast<std::size_t>(kind)];
  }
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
  /// Set and cleared only by SimKernel::start_attempt / stop_attempt,
  /// which keep the per-site live-attempt index in step with it.
  bool active = false;
  /// Index of this attempt's slot in SimKernel::live_attempts(site) while
  /// active (kernel-owned; stale once inactive). Lives in the tail padding.
  std::uint32_t live_pos = 0;
};
// The slot table holds one Attempt per live job; the live-index position
// must ride in existing padding, not grow the table.
static_assert(sizeof(Attempt) == 40,
              "Attempt must stay 40 bytes (live_pos sits in tail padding)");

/// The kernel: event queue + clock + run state + the event handlers.
/// Construction validates the grid, the config and the churn script; the
/// caller attaches an observer (optional) and calls run() once. The public
/// surface beyond that is read-only.
class SimKernel {
 public:
  /// Pull jobs from `stream` on demand and recycle slots as jobs retire;
  /// resident job state is O(active). Each job is validated when it is
  /// admitted, inside run(): arrivals must be finite, >= 0 and
  /// nondecreasing, work finite and > 0, nodes > 0, and some site must be
  /// able to run the job safely (O(1) via a precomputed best-security-
  /// per-node-count table). A violation throws std::invalid_argument
  /// naming the job. `config.batch_interval` must be finite and > 0 and
  /// `config.lambda` finite and >= 0 (std::invalid_argument naming the
  /// field otherwise). Execution times come from the stream: when it
  /// yields rows (row_sites() > 0) each admitted job's raw ETC row is
  /// copied into a row pool and returned to it when the job completes, so
  /// the kernel holds no jobs x sites matrix; the row width must equal the
  /// site count (std::invalid_argument otherwise). A stream without rows
  /// runs the rank-1 work/speed law. `churn`: per-site up/down
  /// parameters drawn from config.seed (entries beyond the site count are
  /// ignored; an empty list, or entries with mtbf/mttr <= 0, queue no
  /// churn event) or a scripted outage list, queued in the given order;
  /// a script with a non-positive-length outage, overlapping outages of
  /// one site, or a site outside the grid throws std::invalid_argument.
  SimKernel(std::vector<SiteConfig> sites,
            std::unique_ptr<workload::JobStream> stream,
            EngineConfig config = {}, SiteChurn churn = {});

  /// Convenience overload: wraps `jobs` in a workload::MaterializedStream
  /// (no ETC rows: the rank-1 law). Arrivals must be nondecreasing, as for
  /// any stream.
  SimKernel(std::vector<SiteConfig> sites, std::vector<Job> jobs,
            EngineConfig config = {}, SiteChurn churn = {});

  /// Run the event loop to completion (all jobs finished), invoking
  /// `scheduler` at every non-empty batch cycle. Throws on scheduler
  /// protocol violations and if the queue drains with unfinished jobs.
  /// May be called once (a second call throws std::logic_error).
  void run(BatchScheduler& scheduler);

  /// Attach a passive observer (nullptr detaches). Observers are
  /// non-owning and must outlive run(). With none attached every notify
  /// point is a single branch on a null pointer, and observed runs stay
  /// bit-identical to unobserved ones (observers see a const kernel).
  void set_observer(KernelObserver* observer) noexcept {
    observer_ = observer;
  }
  [[nodiscard]] KernelObserver* observer() const noexcept { return observer_; }

  // --- run state (read-only) ---
  /// The job slot table: live slots only (recycled slots hold stale
  /// retired data until reused). Readers address jobs by id via
  /// job()/attempt(), and per-site scans (timeseries busy profile) reach
  /// slots through live_attempts(site), never by sweeping the table.
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const std::vector<GridSite>& sites() const noexcept {
    return sites_;
  }
  /// Per-slot current attempts, parallel to jobs(). Attempts change only
  /// through the private start_attempt / stop_attempt / revoke_attempt.
  [[nodiscard]] const std::vector<Attempt>& attempts() const noexcept {
    return attempts_;
  }
  [[nodiscard]] const std::vector<JobId>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  // --- job identity (id -> slot) ---
  /// Total jobs this run will simulate (the stream's size).
  [[nodiscard]] std::size_t total_jobs() const noexcept { return total_jobs_; }
  /// Job / attempt by id. Valid for live ids only: admitted and not yet
  /// retired.
  [[nodiscard]] const Job& job(JobId id) const noexcept {
    return jobs_[slot_of(id)];
  }
  [[nodiscard]] const Attempt& attempt(JobId id) const noexcept {
    return attempts_[slot_of(id)];
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
  /// High-water slot count: O(active jobs), not O(total) — the streaming
  /// scale tests pin this.
  [[nodiscard]] std::size_t peak_slots() const noexcept { return jobs_.size(); }
  /// Bytes of the ETC row pool: its high-water count of admitted,
  /// not-yet-completed jobs x the stream's row_sites() x 8 (0 when the
  /// stream yields no rows). Rows are freed at completion, so completed
  /// jobs a straggler keeps from retiring pin slots but no rows: the pool
  /// never exceeds peak_slots() rows.
  [[nodiscard]] std::size_t row_table_bytes() const noexcept {
    return rows_.size() * sizeof(double);
  }

  /// Diagnostic text for runs that end with incomplete jobs: names the
  /// unfinished count, the first few job ids (with their states) and the
  /// simulation time. Shared by the kernel's terminal error and
  /// metrics::compute_metrics so both failure surfaces stay equally
  /// actionable.
  [[nodiscard]] std::string describe_unfinished(Time sim_time) const;

  /// max over jobs of finish time (0 before run / for empty workloads).
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }

  // --- live-attempt index ---
  /// Slots (indices into jobs() / attempts()) of the active attempts on
  /// `site`, in no meaningful order — callers that need a deterministic
  /// order must sort by attempt data, never rely on index order.
  [[nodiscard]] std::span<const std::uint32_t> live_attempts(
      SiteId site) const noexcept {
    const LiveList& list = live_[site];
    return {live_pool_.data() + list.begin, list.size};
  }
  /// Active attempts over all sites (== the sum of live list sizes).
  [[nodiscard]] std::size_t live_attempt_count() const noexcept {
    return running_;
  }

  // --- site availability mask (written by the churn handlers) ---
  [[nodiscard]] bool site_usable(std::size_t site) const noexcept {
    return site_up_[site] != 0;
  }
  /// The mask as handed to SchedulerContext (1 = usable).
  [[nodiscard]] const std::vector<std::uint8_t>& site_mask() const noexcept {
    return site_up_;
  }

 private:
  /// One site's live list: slots live_pool_[begin, begin + size), room
  /// for `capacity` before it must move.
  struct LiveList {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  [[nodiscard]] std::uint32_t slot_of(JobId id) const noexcept {
    return slot_of_[id & slot_mask_];
  }
  /// The ETC row of the (not yet completed) job in `slot`: its pool row,
  /// or null when the stream yields no rows (the rank-1 law). Valid until
  /// the next admission may grow the pool.
  [[nodiscard]] const double* etc_row(std::uint32_t slot) const noexcept {
    if (row_sites_ == 0) return nullptr;
    return rows_.data() + static_cast<std::size_t>(row_of_[slot]) * row_sites_;
  }
  [[nodiscard]] bool work_remains() const noexcept {
    return !pending_.empty() || arrivals_remaining_ > 0 || running_ > 0;
  }

  // --- event handlers, one group per EventKind (run() switches) ---
  /// kJobArrival: queue the job for the next batch cycle and admit its
  /// successor into the arrival slot. Arrival times come from the
  /// workload, so no draw here.
  void on_arrival(const Event& event);
  /// kBatchCycle: schedule the pending batch (if any) and request the
  /// next cycle while work remains.
  void on_batch_cycle(BatchScheduler& scheduler, Time now);
  /// Snapshot the pending batch, committed availability profiles and site
  /// mask into the SchedulerContext, invoke the scheduler, validate its
  /// assignments against the protocol (range, duplicates, site mask, node
  /// fit, fail-stop rule) and dispatch each.
  void schedule_batch(BatchScheduler& scheduler, Time now);
  /// Reserve `site` for `job` no earlier than `now`, draw the Eq. 1
  /// failure outcome and push the kJobEnd (success at the window end, or
  /// a failure detection inside it).
  void dispatch(JobId job, SiteId site, Time now);
  /// kJobEnd: complete the job, or release the failed reservation and
  /// re-queue the job as a secure_only retry. Stale ends are dropped.
  void on_job_end(const Event& event);
  /// Queue the initial kSiteDown events (none when no site churns).
  void start_churn();
  /// kSiteDown / kSiteUp: flip the site mask; a down revokes the site's
  /// active attempts, and drawn timelines queue the next transition.
  void on_site_event(const Event& event);
  void push_site_event(EventKind kind, SiteId site, Time time);

  // --- job admission and retirement ---
  /// Admit the next job from the cursor into a slot (validating it) and
  /// fill `arrival` with its kJobArrival event; false when exhausted.
  bool admit_next(Event& arrival);
  void validate_admitted(const Job& job) const;
  /// Copy the stream's row for job `id` into a pool row (a freed one if
  /// any) and link it to `slot`.
  void admit_row(std::uint32_t slot, JobId id);
  void grow_slot_ring();
  /// Advance the retirement frontier over completed jobs (in id order),
  /// folding each into the accumulator and freeing its slot. Called after
  /// every completion.
  void retire_completed();

  /// Schedule the next batch cycle strictly after `now` if none is queued.
  /// Cycle times derive from an integer cycle index (index *
  /// batch_interval), never from accumulated floats, so a cycle can never
  /// land at or before the current time.
  void request_cycle(Time now);

  // --- attempts and the live-attempt index ---
  /// Commit `job`'s new attempt and mark it active: the only way an
  /// attempt becomes active. Links the job's slot into the per-site live
  /// index (amortised O(1), heap-free once every site's list has reached
  /// its high-water mark) and returns the stored attempt.
  const Attempt& start_attempt(JobId job,
                               const NodeAvailability::Window& window,
                               double exec, SiteId site, unsigned serial);
  /// Deactivate `job`'s active attempt (any queued kJobEnd for it becomes
  /// stale) and unlink it from its site's live list by swap-remove, O(1).
  /// The only way an attempt stops being active.
  void stop_attempt(JobId job) noexcept;
  void grow_live_list(LiveList& list);
  /// Deactivate `job`'s current attempt at `now` and return it to the
  /// pending queue: account the node-seconds actually burned (none for a
  /// reservation whose window had not started), release the reservation
  /// tail against the *stored* window end, and mark the job pending. The
  /// one revocation primitive shared by failure releases and site-down
  /// revocations — their release accounting must never diverge. Returns
  /// the reclaimed node count (the caller bumps its own
  /// released/unreleased counters and requests a cycle).
  unsigned revoke_attempt(JobId job, Time now);

  std::vector<GridSite> sites_;
  std::vector<Job> jobs_;  ///< slot table (live jobs)
  EngineConfig config_;
  /// ETC row pool (row_sites_ cells per row) when the stream yields rows:
  /// row_of_[slot] is the row of the slot's job while it is incomplete,
  /// and free_rows_ lists the rows of completed jobs for reuse.
  std::vector<double> rows_;
  std::vector<std::uint32_t> row_of_;
  std::vector<std::uint32_t> free_rows_;
  std::size_t row_sites_ = 0;

  EventQueue events_;
  /// The admitted job whose arrival has not popped yet (valid while
  /// arrival_waiting_). run() pops it ahead of events_.top() at equal
  /// times; on_arrival refills it with the successor.
  Event next_arrival_;
  bool arrival_waiting_ = false;
  std::vector<JobId> pending_;
  std::vector<Attempt> attempts_;  ///< per slot, current attempt
  /// Per-site live-attempt index: live_[s] lists the slot of every active
  /// attempt on site s (attempts_[slot].live_pos is its position). All
  /// lists share one contiguous pool instead of one heap block per site:
  /// no per-site allocations, and one growth path for the whole index.
  std::vector<LiveList> live_;
  std::vector<std::uint32_t> live_pool_;
  std::vector<std::uint8_t> site_up_;
  EngineCounters counters_;
  Time makespan_ = 0.0;
  std::size_t arrivals_remaining_ = 0;
  std::size_t running_ = 0;  ///< active attempts (live_ entries)
  bool cycle_scheduled_ = false;
  /// 1 + index of the last scheduled batch cycle (see request_cycle).
  std::uint64_t next_cycle_index_ = 0;
  KernelObserver* observer_ = nullptr;
  bool ran_ = false;

  // --- batch cycle ---
  /// Consecutive non-empty cycles that assigned nothing.
  std::size_t idle_cycles_ = 0;
  // Persistent cycle scratch: the context snapshot, assignment list and
  // per-batch-index marks are rebuilt every cycle but keep their heap
  // buffers, so a steady-state cycle performs no allocations (the
  // invariants tests pin this with a counting allocator). Site configs
  // and lambda never change mid-run, so the context captures them once, at
  // the first cycle; each batch job carries its ETC row pointer.
  SchedulerContext context_;
  std::vector<Assignment> assignments_;
  std::vector<std::uint8_t> assigned_;
  bool context_static_ready_ = false;

  // --- site churn ---
  std::vector<SiteChurnParams> churn_params_;  ///< drawn mode, per site
  /// Per-site streams SeedMix(seed).mix("site-churn").mix(site), drawn
  /// mode only: one site's draws never perturb another's, and nothing
  /// shares state with the per-(job, attempt) failure hash.
  std::vector<util::Rng> churn_streams_;
  std::vector<SiteOutage> churn_script_;  ///< scripted mode, in order
  bool churn_scripted_ = false;
  /// Persistent victim scratch (rebuilt per outage; capacity tracks the
  /// slot table so site-down handling stays heap-free in the steady-state
  /// loop).
  std::vector<JobId> victims_;

  // --- job identity / streaming state ---
  std::unique_ptr<workload::JobStream> stream_;
  std::size_t total_jobs_ = 0;
  std::size_t admitted_ = 0;        ///< ids [0, admitted_) hold a slot
  std::size_t retire_frontier_ = 0; ///< ids [0, frontier) are retired
  Time last_arrival_ = 0.0;         ///< sorted-stream admission guard
  /// id -> slot ring (power-of-two capacity >= live-id window).
  std::vector<std::uint32_t> slot_of_;
  std::uint32_t slot_mask_ = 0;
  std::vector<std::uint32_t> free_slots_;  ///< recycled slots
  /// Per-admission feasibility table: best_security_[k] = max security
  /// level over sites with >= k nodes (-1 when no site fits k).
  std::vector<double> best_security_;
  metrics::RetirementAccumulator retired_;
};

}  // namespace gridsched::sim
