// Stable discrete-event queue: events pop in time order; ties break by
// insertion sequence so simulations are deterministic.
//
// The heap is hand-rolled over a flat vector (no std::priority_queue
// comparator indirection — the (time, seq) compare inlines into the sift
// loops) and takes a capacity hint via reserve(), so in steady state a
// push never allocates: the hot event loop's queue traffic is heap-free
// once the backing vector has grown to the run's high-water mark.
//
// Sequence numbers: push() assigns the next counter value, matching the
// old queue exactly. The kernel admits arrivals lazily rather than pushing
// them all up front, so it reserves the arrival block instead —
// reserve_seqs(n) starts the counter at n and push_reserved(event, seq)
// pushes with an explicit seq from the reserved [0, n) block. Lazy
// injection therefore pops in the same (time, seq) total order as eager
// injection would.
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
  EventKind kind = EventKind::kBatchCycle;
  JobId job = kInvalidJob;
  SiteId site = kInvalidSite;
  /// True when this JobEnd is a security failure detection.
  bool is_failure = false;
  /// For kJobEnd: the attempt serial this end belongs to (the job's
  /// `attempts` count at dispatch). A site-down revocation leaves the old
  /// end event queued; the serial lets the consumer drop it as stale.
  unsigned attempt = 0;
  std::uint64_t seq = 0;  ///< assigned by the queue; breaks time ties FIFO
};

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

  /// Push with an explicit sequence number from a block previously set
  /// aside by reserve_seqs(). Does not advance the auto counter.
  void push_reserved(Event event, std::uint64_t seq) {
    event.seq = seq;
    sift_in(event);
  }

  /// Start auto-assigned sequence numbers at `first` (never moves the
  /// counter backwards), leaving [0, first) for push_reserved callers.
  void reserve_seqs(std::uint64_t first) noexcept {
    if (next_seq_ < first) next_seq_ = first;
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
