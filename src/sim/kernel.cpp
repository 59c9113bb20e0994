#include "sim/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gridsched::sim {

namespace {

/// Initial id->slot ring capacity (grows by doubling).
constexpr std::size_t kInitialSlotRing = 64;

/// Capacity of a site's first live-attempt list segment.
constexpr std::uint32_t kMinLiveCapacity = 4;

}  // namespace

SimKernel::SimKernel(std::vector<SiteConfig> sites,
                     std::unique_ptr<workload::JobStream> stream,
                     EngineConfig config, ExecModel exec_model,
                     SiteChurn churn)
    : config_(config),
      exec_model_(std::move(exec_model)),
      stream_(std::move(stream)) {
  if (stream_ == nullptr) {
    throw std::invalid_argument("SimKernel: null job stream");
  }
  if (sites.empty()) throw std::invalid_argument("SimKernel: no sites");
  if (config_.batch_interval <= 0.0) {
    throw std::invalid_argument("SimKernel: batch_interval must be > 0");
  }
  total_jobs_ = stream_->size();
  sites_.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    SiteConfig sc = sites[i];
    sc.id = static_cast<SiteId>(i);  // ids are dense indices by construction
    sites_.emplace_back(sc);
  }
  // The matrix rows are keyed by dense job ids; a shape mismatch would
  // silently read a different job's row.
  exec_model_.check_shape(total_jobs_, sites_.size());
  site_up_.assign(sites_.size(), 1);
  live_.resize(sites_.size());
  slot_of_.resize(kInitialSlotRing);
  slot_mask_ = static_cast<std::uint32_t>(kInitialSlotRing - 1);
  // Per-admission feasibility must be O(1): precompute, for every node
  // count k, the best security level any site with >= k nodes offers.
  // is_safe(demand, level) is monotone in level, so "some site fits and
  // is safe" == "is_safe(demand, best_security_[nodes])".
  unsigned max_nodes = 0;
  for (const GridSite& site : sites_) {
    max_nodes = std::max(max_nodes, site.config().nodes);
  }
  best_security_.assign(static_cast<std::size_t>(max_nodes) + 1, -1.0);
  for (const GridSite& site : sites_) {
    double& best = best_security_[site.config().nodes];
    best = std::max(best, site.security());
  }
  for (std::size_t k = max_nodes; k-- > 1;) {
    best_security_[k] = std::max(best_security_[k], best_security_[k + 1]);
  }
  churn_ = SiteChurnProcess(std::move(churn), config_.seed, sites_.size());
}

SimKernel::SimKernel(std::vector<SiteConfig> sites, std::vector<Job> jobs,
                     EngineConfig config, ExecModel exec_model,
                     SiteChurn churn)
    : SimKernel(std::move(sites),
                std::make_unique<workload::MaterializedStream>(std::move(jobs)),
                config, std::move(exec_model), std::move(churn)) {}

void SimKernel::validate_admitted(const Job& job) const {
  const auto reject = [&job](const char* problem) {
    throw std::invalid_argument("SimKernel: job " + std::to_string(job.id) +
                                " " + problem);
  };
  // Written as negated positive tests so NaN fails them too; a non-finite
  // arrival would also hang request_cycle's integer cycle search.
  if (!(std::isfinite(job.arrival) && job.arrival >= 0.0)) {
    reject("arrival must be finite and >= 0");
  }
  if (!(std::isfinite(job.work) && job.work > 0.0)) {
    reject("work must be finite and > 0");
  }
  if (job.nodes == 0) reject("nodes must be > 0");
  if (job.arrival < last_arrival_) {
    reject("arrival is out of order: arrivals must be nondecreasing");
  }
  const bool safe_home =
      job.nodes < best_security_.size() &&
      security::is_safe(job.demand, best_security_[job.nodes]);
  if (!safe_home) {
    reject("has no absolutely-safe site; it could starve after a failure");
  }
}

bool SimKernel::admit_next(Event& arrival) {
  if (admitted_ == total_jobs_) return false;
  Job job{};
  if (!stream_->next(job)) {
    throw std::runtime_error(
        "SimKernel: job stream ended after " + std::to_string(admitted_) +
        " of " + std::to_string(total_jobs_) + " job(s)");
  }
  job.id = static_cast<JobId>(admitted_);
  validate_admitted(job);
  last_arrival_ = job.arrival;
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
    attempts_.emplace_back();
    // Keep enough spare capacity for every slot to be parked free at once,
    // so retirement pushes never allocate in the steady-state loop.
    free_slots_.reserve(jobs_.size());
  }
  if (admitted_ + 1 - retire_frontier_ > slot_of_.size()) grow_slot_ring();
  jobs_[slot] = job;
  attempts_[slot] = Attempt{};
  slot_of_[job.id & slot_mask_] = slot;
  ++admitted_;
  arrival = Event{};
  arrival.time = job.arrival;
  arrival.kind = EventKind::kJobArrival;
  arrival.job = job.id;
  return true;
}

void SimKernel::grow_slot_ring() {
  // Live ids form the contiguous window [retire_frontier_, admitted_), so
  // any power-of-two capacity >= the window length is collision-free.
  std::vector<std::uint32_t> bigger(slot_of_.size() * 2);
  const std::uint32_t mask = static_cast<std::uint32_t>(bigger.size() - 1);
  for (std::size_t id = retire_frontier_; id < admitted_; ++id) {
    bigger[id & mask] = slot_of_[id & slot_mask_];
  }
  slot_of_.swap(bigger);
  slot_mask_ = mask;
}

void SimKernel::retire_completed() {
  // Retire strictly in id order: a completed job waits in its slot until
  // every lower id has retired, so the accumulator always sums in id order
  // (deterministic floating-point sums).
  while (retire_frontier_ < admitted_) {
    const std::uint32_t slot =
        slot_of_[static_cast<JobId>(retire_frontier_) & slot_mask_];
    if (jobs_[slot].state != JobState::kCompleted) break;
    retired_.add(jobs_[slot]);
    free_slots_.push_back(slot);
    ++retire_frontier_;
  }
}

std::string SimKernel::describe_unfinished(Time sim_time) const {
  constexpr std::size_t kMaxNamed = 5;
  std::size_t unfinished = 0;
  std::string ids;
  for (std::size_t id = retire_frontier_; id < total_jobs_; ++id) {
    const JobState state = id < admitted_
                               ? job(static_cast<JobId>(id)).state
                               : JobState::kPending;
    if (state == JobState::kCompleted) continue;
    ++unfinished;
    if (unfinished <= kMaxNamed) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(id);
      ids += state == JobState::kDispatched ? " (dispatched)" : " (pending)";
    }
  }
  std::string text = std::to_string(unfinished) + " of " +
                     std::to_string(total_jobs_) + " job(s) unfinished at " +
                     "sim time " + std::to_string(sim_time) + "; first ids: [" +
                     ids;
  if (unfinished > kMaxNamed) text += ", ...";
  return text + "]";
}

void SimKernel::request_cycle(Time now) {
  if (cycle_scheduled_) return;
  // Smallest integer cycle index whose derived time is strictly after
  // `now`. The float quotient only seeds the search: at an exact multiple,
  // floor(now/interval) + 1 can round to a cycle at (or before) `now`
  // itself, so the index is corrected against the derived times and kept
  // monotone across calls before any event is pushed.
  std::uint64_t index = static_cast<std::uint64_t>(std::max(
                            0.0, std::floor(now / config_.batch_interval))) +
                        1;
  while (index > 1 && static_cast<double>(index - 1) * config_.batch_interval >
                          now) {
    --index;
  }
  while (static_cast<double>(index) * config_.batch_interval <= now) ++index;
  index = std::max(index, next_cycle_index_);
  next_cycle_index_ = index + 1;
  Event cycle;
  cycle.time = static_cast<double>(index) * config_.batch_interval;
  cycle.kind = EventKind::kBatchCycle;
  events_.push(cycle);
  cycle_scheduled_ = true;
}

void SimKernel::grow_live_list(LiveList& list) {
  // Move the full list to a segment of twice the capacity at the pool's
  // end and abandon the old one. A site's abandoned segments sum to less
  // than its current capacity, so the pool stays within twice the sum of
  // the lists' high-water capacities and stops growing with them.
  const std::uint32_t capacity = std::max(kMinLiveCapacity, 2 * list.capacity);
  const auto begin = static_cast<std::uint32_t>(live_pool_.size());
  live_pool_.resize(live_pool_.size() + capacity);
  std::copy_n(live_pool_.begin() + list.begin, list.size,
              live_pool_.begin() + begin);
  list.begin = begin;
  list.capacity = capacity;
}

const Attempt& SimKernel::start_attempt(
    JobId job_id, const NodeAvailability::Window& window, double exec,
    SiteId site, unsigned serial) {
  const std::uint32_t slot = slot_of_[job_id & slot_mask_];
  LiveList& list = live_[site];
  if (list.size == list.capacity) grow_live_list(list);
  live_pool_[list.begin + list.size] = slot;
  Attempt& the_attempt = attempts_[slot];
  the_attempt = {window, exec, site, serial, true, list.size++};
  ++running_;
  return the_attempt;
}

void SimKernel::stop_attempt(JobId job_id) noexcept {
  Attempt& the_attempt = attempts_[slot_of_[job_id & slot_mask_]];
  LiveList& list = live_[the_attempt.site];
  std::uint32_t* const slots = live_pool_.data() + list.begin;
  const std::uint32_t moved = slots[--list.size];
  slots[the_attempt.live_pos] = moved;
  attempts_[moved].live_pos = the_attempt.live_pos;
  the_attempt.active = false;  // any queued kJobEnd for this attempt is stale
  --running_;
}

unsigned SimKernel::revoke_attempt(JobId job_id, Time now) {
  Job& the_job = job(job_id);
  const Attempt& the_attempt = attempt(job_id);
  if (observer_) observer_->on_revoke(*this, job_id, the_attempt.site, now);
  stop_attempt(job_id);
  the_job.state = JobState::kPending;
  GridSite& site = sites_[the_attempt.site];
  if (the_attempt.window.start < now) {
    site.account_busy(the_job.nodes, now - the_attempt.window.start);
  }
  const unsigned released =
      site.release_after_failure(the_job.nodes, the_attempt.window.end, now);
  pending_.push_back(job_id);
  return released;
}

void SimKernel::run(BatchScheduler& scheduler) {
  if (ran_) throw std::logic_error("SimKernel::run called twice");
  ran_ = true;

  arrivals_remaining_ = total_jobs_;
  // Arrival events carry reserved sequence numbers (seq == job id), so
  // lazy injection pops in the same (time, seq) total order as pushing
  // every arrival up front would; dynamic events number from total_jobs_.
  events_.reserve_seqs(total_jobs_);
  // Capacity hint: the queue holds O(active) events.
  events_.reserve(std::min<std::size_t>(total_jobs_, 1024) + 64);
  // Start order fixes the FIFO tie-break among the initial events:
  // arrivals first, churn timelines last.
  ArrivalProcess::start(*this);
  churn_.start(*this);
  if (observer_) observer_->on_run_start(*this);

  // The loop ends when every job has completed, not when the queue drains:
  // an open-ended process (site churn) keeps future events queued for as
  // long as the simulation could need them.
  Time now = 0.0;
  while (!events_.empty()) {
    if (counters_.completed_jobs == total_jobs_) break;
    const Event event = events_.pop();
    now = event.time;
    // Watchdog checkpoint: batch cycles are the kernel's natural pause
    // points (bounded work between them), so a cancelled/expired token
    // aborts within one cycle without any asynchronous interruption.
    if (config_.cancel != nullptr && event.kind == EventKind::kBatchCycle) {
      config_.cancel->check("simulation batch cycle");
    }
    ++counters_.events[static_cast<std::size_t>(event.kind)];
    if (observer_) observer_->on_event(*this, event);
    // No default: -Werror=switch makes a kind without a case a compile
    // error.
    switch (event.kind) {
      case EventKind::kJobArrival:
        ArrivalProcess::handle(*this, event);
        break;
      case EventKind::kBatchCycle:
        batch_.handle(*this, scheduler, event);
        break;
      case EventKind::kJobEnd:
        SecurityFailureProcess::handle(*this, event);
        break;
      case EventKind::kSiteDown:
      case EventKind::kSiteUp:
        churn_.handle(*this, event);
        break;
      case EventKind::kKindCount_:  // sentinel, never queued
        break;
    }
  }

  if (counters_.completed_jobs != total_jobs_) {
    throw std::runtime_error("SimKernel: simulation ended with " +
                             describe_unfinished(now));
  }
  if (observer_) observer_->on_run_end(*this);
}

}  // namespace gridsched::sim
