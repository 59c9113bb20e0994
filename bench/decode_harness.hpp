// Shared harness for the decode fast-path test and bench: a counting
// replacement of the global allocation functions (so zero-allocation claims
// are checked against all heap traffic, and footprint claims against the
// live heap's high-water mark) and a registry-scenario batch builder.
// Include from exactly ONE translation unit per binary — the operator
// new/delete definitions are binary-wide replacements, and a second
// inclusion in the same binary is a duplicate-symbol link error.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <malloc.h>

#include "exp/scenario_registry.hpp"
#include "util/rng.hpp"

// ----------------------------------------------------------------- alloc ---
namespace gridsched::bench {
inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_live_bytes{0};
inline std::atomic<std::uint64_t> g_peak_live_bytes{0};

/// Heap allocations observed so far in this binary.
inline std::uint64_t allocation_count() { return g_allocations.load(); }

/// Bytes of the blocks allocated through operator new and not yet freed
/// (malloc_usable_size of each block), and their high-water mark since
/// the last reset_peak_live_bytes().
inline std::uint64_t live_bytes() { return g_live_bytes.load(); }
inline std::uint64_t peak_live_bytes() { return g_peak_live_bytes.load(); }
inline void reset_peak_live_bytes() {
  g_peak_live_bytes.store(g_live_bytes.load());
}

namespace detail {

inline void* tracked(void* p) {
  if (p == nullptr) return p;
  const std::uint64_t live = g_live_bytes += malloc_usable_size(p);
  std::uint64_t peak = g_peak_live_bytes.load();
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

inline void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}

inline void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return tracked(p);
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return tracked(p);
  }
  throw std::bad_alloc();
}

inline void* counted_alloc_nothrow(std::size_t size) noexcept {
  ++g_allocations;
  return tracked(std::malloc(size ? size : 1));
}

inline void* counted_aligned_alloc_nothrow(std::size_t size,
                                           std::size_t alignment) noexcept {
  ++g_allocations;
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return tracked(
      std::aligned_alloc(alignment, rounded ? rounded : alignment));
}

}  // namespace detail
}  // namespace gridsched::bench

void* operator new(std::size_t size) {
  return gridsched::bench::detail::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return gridsched::bench::detail::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return gridsched::bench::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return gridsched::bench::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}
// The nothrow forms must be replaced too (std::get_temporary_buffer inside
// libstdc++'s inplace_merge/stable_sort allocates through them): leaving
// them on the default allocator while delete goes to std::free is an
// alloc/dealloc mismatch, and their allocations would escape the count.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return gridsched::bench::detail::counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return gridsched::bench::detail::counted_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return gridsched::bench::detail::counted_aligned_alloc_nothrow(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return gridsched::bench::detail::counted_aligned_alloc_nothrow(
      size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete(void* p) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  gridsched::bench::detail::tracked_free(p);
}
// ---------------------------------------------------------------------------

namespace gridsched::bench {

/// A scheduling round that owns the ETC matrix its jobs' rows point into
/// (copies share it).
struct ScenarioBatch : sim::SchedulerContext {
  sim::ExecModel exec;
};

/// A scheduling round drawn from a registry scenario: the scenario's sites
/// with some committed backlog, and its first `n_jobs` generated jobs with
/// their raw ETC rows (synth scenarios; rank-1 otherwise).
inline ScenarioBatch scenario_batch(const std::string& name,
                                    std::size_t n_jobs, std::uint64_t seed) {
  const exp::Scenario scenario = exp::make_scenario(name, n_jobs);
  const workload::Workload w = exp::make_workload(scenario, seed);
  ScenarioBatch context;
  context.now = 500.0;
  context.exec = w.exec;
  util::Rng rng(seed ^ 0x5eed5eedULL);
  for (const sim::SiteConfig& site : w.sites) {
    context.sites.push_back(site);
    sim::NodeAvailability avail(site.nodes, 0.0);
    avail.reserve(1 + static_cast<unsigned>(rng.index(site.nodes)),
                  rng.uniform(0.0, 900.0), 0.0);
    context.avail.push_back(avail);
  }
  for (const sim::Job& job : w.jobs) {
    if (context.jobs.size() >= n_jobs) break;
    sim::BatchJob batch_job;
    batch_job.id = job.id;
    batch_job.work = job.work;
    batch_job.nodes = job.nodes;
    batch_job.demand = job.demand;
    batch_job.arrival = job.arrival;
    batch_job.etc_row = context.exec.row(job.id);
    context.jobs.push_back(batch_job);
  }
  return context;
}

}  // namespace gridsched::bench
