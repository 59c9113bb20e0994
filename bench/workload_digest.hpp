// 64-bit FNV-1a fingerprint of a built workload, shared by bench_kernel's
// "builds" rows and the golden build-digest test: every job's arrival,
// work, nodes and demand; every site's nodes, speed and security; the raw
// ETC cells (an empty span for rank-1 workloads); and the churn
// parameters. Numbers hash as 8-byte little-endian bit patterns, so a
// digest does not depend on the host's byte order.
#pragma once

#include <bit>
#include <cstdint>

#include "workload/workload.hpp"

namespace gridsched::bench {

inline std::uint64_t workload_digest(const workload::Workload& w) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto u64 = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash = (hash ^ static_cast<unsigned char>(value >> shift)) *
             0x100000001b3ULL;
    }
  };
  const auto f64 = [&u64](double value) {
    u64(std::bit_cast<std::uint64_t>(value));
  };
  u64(w.jobs.size());
  for (const sim::Job& job : w.jobs) {
    f64(job.arrival);
    f64(job.work);
    u64(job.nodes);
    f64(job.demand);
  }
  u64(w.sites.size());
  for (const sim::SiteConfig& site : w.sites) {
    u64(site.nodes);
    f64(site.speed);
    f64(site.security);
  }
  const auto cells = w.exec.matrix_cells();
  u64(cells.size());
  for (const double cell : cells) f64(cell);
  u64(w.churn.size());
  for (const sim::SiteChurnParams& churn : w.churn) {
    f64(churn.mtbf);
    f64(churn.mttr);
  }
  return hash;
}

}  // namespace gridsched::bench
