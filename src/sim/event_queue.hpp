// Stable discrete-event queue: events pop in time order; ties break by
// insertion sequence so simulations are deterministic.
//
// The heap is hand-rolled over a flat vector (no std::priority_queue
// comparator indirection — the (time, seq) compare inlines into the sift
// loops) and takes a capacity hint via reserve(), so in steady state a
// push never allocates: the hot event loop's queue traffic is heap-free
// once the backing vector has grown to the run's high-water mark.
//
// Sequence numbers: push() assigns the next counter value, so
// same-timestamp events pop in push order. Job arrivals never enter the
// queue: the kernel holds the one admitted-but-not-yet-arrived job in a
// slot of its own and pops it ahead of any queued event at the same time
// (SimKernel::run).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace gridsched::sim {

enum class EventKind : std::uint8_t {
  kJobArrival,   ///< payload = job id
  kBatchCycle,   ///< periodic scheduler invocation
  kJobEnd,       ///< payload = job id; success or failure detection
  kSiteDown,     ///< payload = site id; churn outage begins
  kSiteUp,       ///< payload = site id; churn outage ends
  kKindCount_,   ///< sentinel — keep last (sizes the per-kind counters)
};

/// Number of EventKind values (sizes the kernel's per-kind counters).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kKindCount_);

struct Event {
  Time time = 0.0;
  std::uint64_t seq = 0;  ///< assigned by the queue; breaks time ties FIFO
  JobId job = kInvalidJob;
  SiteId site = kInvalidSite;
  /// For kJobEnd: the attempt serial this end belongs to (the job's
  /// `attempts` count at dispatch). A site-down revocation leaves the old
  /// end event queued; the serial lets the consumer drop it as stale.
  unsigned attempt = 0;
  EventKind kind = EventKind::kBatchCycle;
  /// True when this JobEnd is a security failure detection.
  bool is_failure = false;
};
// Every heap sift moves whole events: the two one-byte fields share the
// tail word instead of each padding out a word of their own.
static_assert(sizeof(Event) == 32, "Event must stay 32 bytes");

class EventQueue {
 public:
  /// Capacity hint: grow the backing vector once, up front, so steady-state
  /// pushes below the hint never allocate.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }

  /// Push with the next auto-assigned sequence number.
  void push(Event event) {
    event.seq = next_seq_++;
    sift_in(event);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] const Event& top() const { return heap_.front(); }
  Event pop();

 private:
  /// Strict weak order: does `a` pop after `b`?
  static bool later(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void sift_in(const Event& event);

  std::vector<Event> heap_;  ///< binary min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace gridsched::sim
