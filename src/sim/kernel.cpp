#include "sim/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/grow.hpp"

namespace gridsched::sim {

namespace {

/// Initial id->slot ring capacity (grows by doubling).
constexpr std::size_t kInitialSlotRing = 64;

/// Capacity of a site's first live-attempt list segment.
constexpr std::uint32_t kMinLiveCapacity = 4;

}  // namespace

SimKernel::SimKernel(std::vector<SiteConfig> sites,
                     std::unique_ptr<workload::JobStream> stream,
                     EngineConfig config, SiteChurn churn)
    : config_(config), stream_(std::move(stream)) {
  if (stream_ == nullptr) {
    throw std::invalid_argument("SimKernel: null job stream");
  }
  if (sites.empty()) throw std::invalid_argument("SimKernel: no sites");
  // Negated positive tests, so NaN fails them too: an infinite interval
  // would spin request_cycle's integer cycle search forever, and a
  // negative or NaN lambda would silently switch Eq. 1 off.
  if (!(std::isfinite(config_.batch_interval) &&
        config_.batch_interval > 0.0)) {
    throw std::invalid_argument(
        "SimKernel: batch_interval must be finite and > 0");
  }
  if (!(std::isfinite(config_.lambda) && config_.lambda >= 0.0)) {
    throw std::invalid_argument("SimKernel: lambda must be finite and >= 0");
  }
  total_jobs_ = stream_->size();
  sites_.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    SiteConfig sc = sites[i];
    sc.id = static_cast<SiteId>(i);  // ids are dense indices by construction
    sites_.emplace_back(sc);
  }
  row_sites_ = stream_->row_sites();
  if (row_sites_ != 0 && row_sites_ != sites_.size()) {
    throw std::invalid_argument(
        "SimKernel: job stream rows have " + std::to_string(row_sites_) +
        " cell(s) but the grid has " + std::to_string(sites_.size()) +
        " site(s)");
  }
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
  if (auto* params = std::get_if<std::vector<SiteChurnParams>>(&churn)) {
    churn_params_ = std::move(*params);
    if (churn_params_.size() > sites_.size()) {
      churn_params_.resize(sites_.size());
    }
    return;
  }
  churn_script_ = std::get<std::vector<SiteOutage>>(std::move(churn));
  churn_scripted_ = true;
  for (const SiteOutage& outage : churn_script_) {
    if (!(outage.up > outage.down) || outage.down < 0.0) {
      throw std::invalid_argument(
          "SimKernel: outage must satisfy 0 <= down < up");
    }
    // The mask and the live-attempt index are sized to the grid.
    if (outage.site >= sites_.size()) {
      throw std::invalid_argument(
          "SimKernel: outage names site " + std::to_string(outage.site) +
          " but the grid has " + std::to_string(sites_.size()) + " site(s)");
    }
  }
  // The availability mask is a boolean, so overlapping outages for one
  // site would let the first kSiteUp re-enable a site a second outage
  // still holds down. Reject them instead of mis-simulating.
  std::vector<SiteOutage> sorted = churn_script_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SiteOutage& a, const SiteOutage& b) {
                     if (a.site != b.site) return a.site < b.site;
                     return a.down < b.down;
                   });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].site == sorted[i - 1].site &&
        sorted[i].down < sorted[i - 1].up) {
      throw std::invalid_argument(
          "SimKernel: overlapping outages for one site");
    }
  }
}

SimKernel::SimKernel(std::vector<SiteConfig> sites, std::vector<Job> jobs,
                     EngineConfig config, SiteChurn churn)
    : SimKernel(std::move(sites),
                std::make_unique<workload::MaterializedStream>(std::move(jobs)),
                config, std::move(churn)) {}

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
    if (row_sites_ != 0) row_of_.emplace_back();
    // Keep enough spare capacity for every slot to be parked free at once,
    // so retirement pushes never allocate in the steady-state loop. The
    // slot table's capacity, not its size: the free list then grows once
    // per table doubling, not at every new high-water.
    free_slots_.reserve(jobs_.capacity());
  }
  if (admitted_ + 1 - retire_frontier_ > slot_of_.size()) grow_slot_ring();
  jobs_[slot] = job;
  attempts_[slot] = Attempt{};
  if (row_sites_ != 0) admit_row(slot, job.id);
  slot_of_[job.id & slot_mask_] = slot;
  ++admitted_;
  arrival = Event{};
  arrival.time = job.arrival;
  arrival.kind = EventKind::kJobArrival;
  arrival.job = job.id;
  return true;
}

void SimKernel::admit_row(std::uint32_t slot, JobId id) {
  const std::span<const double> row = stream_->row();
  if (row.size() != row_sites_) {
    throw std::invalid_argument("SimKernel: job " + std::to_string(id) +
                                " arrived without its ETC row");
  }
  std::uint32_t index = 0;
  if (!free_rows_.empty()) {
    index = free_rows_.back();
    free_rows_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(rows_.size() / row_sites_);
    rows_.resize(rows_.size() + row_sites_);
    // As for free_slots_: room for every row of the pool's capacity to be
    // parked free at once.
    free_rows_.reserve(rows_.capacity() / row_sites_);
  }
  row_of_[slot] = index;
  std::copy(row.begin(), row.end(),
            rows_.begin() + static_cast<std::ptrdiff_t>(index * row_sites_));
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
    const std::uint32_t slot = slot_of(static_cast<JobId>(retire_frontier_));
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
  const double quotient =
      std::max(0.0, std::floor(now / config_.batch_interval));
  // Below 2^53 every cycle index is exact in a double. Past it the search
  // cannot step to a later cycle, and past 2^64 the cast is undefined.
  if (!(quotient < 0x1p53)) {
    char text[160];
    std::snprintf(text, sizeof text,
                  "SimKernel: batch_interval %g is too small at sim time now "
                  "= %g (now / batch_interval must stay below 2^53)",
                  config_.batch_interval, now);
    throw std::invalid_argument(text);
  }
  std::uint64_t index = static_cast<std::uint64_t>(quotient) + 1;
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
  const std::uint32_t slot = slot_of(job_id);
  LiveList& list = live_[site];
  if (list.size == list.capacity) grow_live_list(list);
  live_pool_[list.begin + list.size] = slot;
  Attempt& the_attempt = attempts_[slot];
  the_attempt = {window, exec, site, serial, true, list.size++};
  ++running_;
  return the_attempt;
}

void SimKernel::stop_attempt(JobId job_id) noexcept {
  Attempt& the_attempt = attempts_[slot_of(job_id)];
  LiveList& list = live_[the_attempt.site];
  std::uint32_t* const slots = live_pool_.data() + list.begin;
  const std::uint32_t moved = slots[--list.size];
  slots[the_attempt.live_pos] = moved;
  attempts_[moved].live_pos = the_attempt.live_pos;
  the_attempt.active = false;  // any queued kJobEnd for this attempt is stale
  --running_;
}

unsigned SimKernel::revoke_attempt(JobId job_id, Time now) {
  Job& the_job = jobs_[slot_of(job_id)];
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

void SimKernel::on_arrival(const Event& event) {
  --arrivals_remaining_;
  pending_.push_back(event.job);
  // Pull the next job into the arrival slot. Its arrival is >= this one
  // (sorted-stream contract, checked at admission), so the slot always
  // holds the earliest arrival still to come.
  arrival_waiting_ = admit_next(next_arrival_);
  request_cycle(event.time);
}

void SimKernel::on_batch_cycle(BatchScheduler& scheduler, Time now) {
  cycle_scheduled_ = false;
  if (!pending_.empty()) schedule_batch(scheduler, now);
  if (work_remains()) request_cycle(now);
}

void SimKernel::schedule_batch(BatchScheduler& scheduler, Time now) {
  // Refresh the persistent context snapshot in place. The per-cycle
  // fields (availability profiles, site mask, batch) copy-assign into
  // buffers that already hold their high-water capacity.
  SchedulerContext& context = context_;
  context.now = now;
  if (!context_static_ready_) {
    context.lambda = config_.lambda;
    context.sites.reserve(sites_.size());
    for (const GridSite& site : sites_) context.sites.push_back(site.config());
    context.avail.resize(sites_.size(), NodeAvailability(1, 0.0));
    context_static_ready_ = true;
  }
  context.site_up = site_up_;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    context.avail[s] = sites_[s].availability();
  }
  context.jobs.clear();
  util::reserve_geometric(context.jobs, pending_.size());
  // Sized before the scheduler runs, like the batch, so a new batch
  // high-water allocates within the cycle that reaches it.
  util::reserve_geometric(assigned_, pending_.size());
  for (const JobId id : pending_) {
    const std::uint32_t slot = slot_of(id);
    const Job& job = jobs_[slot];
    context.jobs.push_back({job.id, job.nodes, job.work, job.demand,
                            job.arrival, job.secure_only, etc_row(slot)});
  }

  ++counters_.batch_invocations;
  // Scheduler wall seconds feed the observer hook, the profile sidecar and
  // the kernel.scheduler_seconds gauge only — never a byte-stable artifact.
  // NOLINTNEXTLINE(GS-R05): wall-clock is observability-only here
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler.schedule_into(context, assignments_);
  const double wall =
      // NOLINTNEXTLINE(GS-R05): wall-clock is observability-only here
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  counters_.scheduler_seconds += wall;
  if (observer_) {
    observer_->on_cycle(*this, now, context.jobs.size(), assignments_.size(),
                        wall);
  }

  // Validate and apply in the order the scheduler chose.
  assigned_.assign(context.jobs.size(), 0);
  for (const Assignment& assignment : assignments_) {
    if (assignment.job_index >= context.jobs.size()) {
      throw std::logic_error("scheduler returned an out-of-range job index");
    }
    if (assignment.site >= sites_.size()) {
      throw std::logic_error("scheduler returned an invalid site id");
    }
    if (assigned_[assignment.job_index]) {
      throw std::logic_error("scheduler assigned the same job twice");
    }
    assigned_[assignment.job_index] = 1;
    const JobId job_id = context.jobs[assignment.job_index].id;
    const Job& job = jobs_[slot_of(job_id)];
    const GridSite& site = sites_[assignment.site];
    if (!site_usable(assignment.site)) {
      throw std::logic_error(
          "scheduler placed a job on a site that is currently down");
    }
    if (!site.fits(job.nodes)) {
      throw std::logic_error(
          "scheduler placed a job on a site it does not fit");
    }
    if (job.secure_only && !security::is_safe(job.demand, site.security())) {
      throw std::logic_error(
          "scheduler violated the fail-stop rule (secure_only job on "
          "risky site)");
    }
    dispatch(job_id, assignment.site, now);
  }

  // Compact dispatched jobs out of the pending queue in place, preserving
  // order (nothing was appended during the cycle, so pending index ==
  // batch index).
  if (!assignments_.empty()) {
    std::size_t write = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (!assigned_[i]) pending_[write++] = pending_[i];
    }
    pending_.resize(write);
    idle_cycles_ = 0;
  } else if (++idle_cycles_ > config_.max_idle_cycles) {
    throw std::runtime_error("SimKernel: scheduler starved " +
                             std::to_string(pending_.size()) +
                             " pending job(s) for too many cycles");
  }
}

void SimKernel::dispatch(JobId job_id, SiteId site_id, Time now) {
  const std::uint32_t slot = slot_of(job_id);
  Job& job = jobs_[slot];
  GridSite& site = sites_[site_id];

  const double exec =
      exec_time(etc_row(slot), job.work, site_id, site.speed());
  const NodeAvailability::Window window = site.dispatch(job.nodes, exec, now);

  ++job.attempts;
  const Attempt& attempt =
      start_attempt(job_id, window, exec, site_id, job.attempts);
  job.state = JobState::kDispatched;
  if (job.first_start < 0.0) job.first_start = window.start;
  job.last_start = window.start;

  const double p_fail =
      security::failure_probability(job.demand, site.security(), config_.lambda);
  // Common random numbers: the failure draw for (job, attempt) is a pure
  // hash of (seed, job, attempt), independent of everything the scheduler
  // did before. Identical placements therefore fail identically under every
  // algorithm, which removes a large cross-algorithm noise term from the
  // paired comparisons the paper makes (README "Model parameters").
  util::SplitMix64 draw(config_.seed ^
                        0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(job_id) + 1) ^
                        0xc2b2ae3d27d4eb4fULL * (job.attempts + 1ULL));
  const double failure_ticket = static_cast<double>(draw.next() >> 11) *
      0x1.0p-53;
  bool will_fail = false;
  if (p_fail > 0.0) {
    ++counters_.risky_attempts;
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
    if (config_.detection == FailureDetection::kUniformFraction) {
      fraction = static_cast<double>(draw.next() >> 11) * 0x1.0p-53;
    } else if (config_.detection == FailureDetection::kImmediate) {
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
  events_.push(end);
  if (observer_) {
    observer_->on_dispatch(*this, job_id, site_id, window, exec,
                           attempt.serial);
  }
}

void SimKernel::on_job_end(const Event& event) {
  // A retired job's slot may already belong to another job; an end event
  // for it is necessarily stale — the job completed
  // elsewhere after the attempt this end belongs to was revoked.
  if (is_retired(event.job)) return;
  const std::uint32_t slot = slot_of(event.job);
  Job& job = jobs_[slot];
  const Attempt& attempt = attempts_[slot];
  // A site-down revocation deactivates the attempt (and a re-dispatch bumps
  // the serial) but cannot remove the already-queued end event; drop it.
  if (!attempt.active || attempt.serial != event.attempt) return;
  if (event.is_failure) {
    ++counters_.failure_events;
    ++job.failures;
    job.secure_only = true;  // fail-stop: never risk again
    if (observer_) {
      observer_->on_attempt_failure(*this, event.job, attempt.site,
                                    event.time);
    }
    // Give the unused tail of the reservation back to the site, keyed by
    // the exact stored window end (recomputing start + exec would rely on
    // bitwise float equality against the profile; see revoke_attempt). A
    // node is unreclaimable only when a later batch cycle already stacked
    // the next reservation onto it; count both outcomes so a zero-node
    // release is visible instead of silently dropped.
    const unsigned released = revoke_attempt(event.job, event.time);
    counters_.released_nodes += released;
    counters_.unreleased_nodes += job.nodes - released;
    request_cycle(event.time);
  } else {
    stop_attempt(event.job);
    // A completed job is never scheduled again: its row goes back to the
    // pool now, not when the in-order frontier retires its slot.
    if (row_sites_ != 0) free_rows_.push_back(row_of_[slot]);
    job.state = JobState::kCompleted;
    job.finish = event.time;
    job.final_site = attempt.site;
    sites_[attempt.site].account_busy(job.nodes, attempt.exec);
    makespan_ = makespan_ < event.time ? event.time : makespan_;
    ++counters_.completed_jobs;
    if (observer_) {
      observer_->on_job_complete(*this, event.job, attempt.site, event.time);
    }
    // Fold newly-retirable jobs into the metric accumulator (recycling
    // their slots) after observers saw the
    // completion — observers address jobs by id and must see live state.
    retire_completed();
  }
}

void SimKernel::push_site_event(EventKind kind, SiteId site, Time time) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.site = site;
  events_.push(event);
}

void SimKernel::start_churn() {
  if (churn_scripted_) {
    // Script order fixes the FIFO tie-break among same-time churn events.
    for (const SiteOutage& outage : churn_script_) {
      push_site_event(EventKind::kSiteDown, outage.site, outage.down);
      push_site_event(EventKind::kSiteUp, outage.site, outage.up);
    }
    return;
  }
  churn_streams_.reserve(churn_params_.size());
  for (std::size_t s = 0; s < churn_params_.size(); ++s) {
    churn_streams_.push_back(util::SeedMix(config_.seed)
                                 .mix("site-churn")
                                 .mix(static_cast<std::uint64_t>(s))
                                 .rng());
    if (churn_params_[s].churns()) {
      push_site_event(EventKind::kSiteDown, static_cast<SiteId>(s),
                      churn_streams_[s].exponential(1.0 / churn_params_[s].mtbf));
    }
  }
}

void SimKernel::on_site_event(const Event& event) {
  const auto site = static_cast<std::size_t>(event.site);
  const bool down = event.kind == EventKind::kSiteDown;
  site_up_[site] = down ? 0 : 1;
  if (down) {
    // Victim attempts, latest stored window end first: a node's free time
    // equals the *last* reservation stacked onto it, so releasing in
    // descending end order reclaims every tail that is reclaimable at
    // all. Victims come from the per-site live index (O(victims), not
    // O(slots)) and are copied out as job ids because revoking mutates
    // the index. The sort key (end descending, id ascending) is a strict
    // total order, so the index's internal order never shows.
    victims_.clear();
    // Victims hold distinct slots: sizing the buffer to the slot table's
    // capacity means it grows only when the table does, never on a late
    // outage that merely hits more attempts than any earlier one.
    victims_.reserve(jobs_.capacity());
    for (const std::uint32_t slot : live_attempts(event.site)) {
      victims_.push_back(jobs_[slot].id);
    }
    std::sort(victims_.begin(), victims_.end(), [&](JobId a, JobId b) {
      const Time end_a = attempt(a).window.end;
      const Time end_b = attempt(b).window.end;
      if (end_a != end_b) return end_a > end_b;
      return a < b;  // deterministic tie-break
    });
    for (const JobId job_id : victims_) {
      Job& job = jobs_[slot_of(job_id)];
      ++job.interruptions;
      ++counters_.interrupted_attempts;
      // Reclaim through the stored window — the same revocation primitive
      // failure releases use. An unreclaimable node here means an earlier
      // revoked reservation was stacked behind a later one we already
      // reset; the capacity is free either way, but the shortfall is
      // surfaced instead of silently ignored. The interrupted job
      // re-enters the batch queue with its flags intact: a secure_only
      // retry stays secure_only.
      const unsigned released = revoke_attempt(job_id, event.time);
      counters_.churn_released_nodes += released;
      counters_.churn_unreleased_nodes += job.nodes - released;
    }
    if (!victims_.empty()) request_cycle(event.time);
  }
  if (!churn_scripted_) {
    const SiteChurnParams& params = churn_params_[site];
    push_site_event(down ? EventKind::kSiteUp : EventKind::kSiteDown,
                    event.site,
                    event.time + churn_streams_[site].exponential(
                                     1.0 / (down ? params.mttr : params.mtbf)));
  }
}

void SimKernel::run(BatchScheduler& scheduler) {
  if (ran_) throw std::logic_error("SimKernel::run called twice");
  ran_ = true;

  arrivals_remaining_ = total_jobs_;
  // Capacity hint: the queue holds O(active) events.
  events_.reserve(std::min<std::size_t>(total_jobs_, 1024) + 64);
  // Only the first job is admitted here; each arrival admits its successor
  // (on_arrival), so at most one un-arrived job is ever resident, and it
  // waits in the arrival slot, never in the queue.
  arrival_waiting_ = admit_next(next_arrival_);
  start_churn();
  if (observer_) observer_->on_run_start(*this);

  // The loop ends when every job has completed, not when the queue drains:
  // an open-ended process (site churn) keeps future events queued for as
  // long as the simulation could need them.
  Time now = 0.0;
  while (arrival_waiting_ || !events_.empty()) {
    if (counters_.completed_jobs == total_jobs_) break;
    // The arrival slot wins time ties: every queued event at the same
    // instant pops after the arriving job (see kernel.hpp).
    Event event;
    if (arrival_waiting_ &&
        (events_.empty() || next_arrival_.time <= events_.top().time)) {
      event = next_arrival_;
      arrival_waiting_ = false;
    } else {
      event = events_.pop();
    }
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
        on_arrival(event);
        break;
      case EventKind::kBatchCycle:
        on_batch_cycle(scheduler, event.time);
        break;
      case EventKind::kJobEnd:
        on_job_end(event);
        break;
      case EventKind::kSiteDown:
      case EventKind::kSiteUp:
        on_site_event(event);
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
