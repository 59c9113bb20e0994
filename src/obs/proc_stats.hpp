// Process-level resource probes for benchmarks: peak and current RSS.
// Kept out of any byte-stable artifact — these numbers vary run to run.
#pragma once

#include <cstdint>

namespace gridsched::obs {

/// Peak resident set size of this process image in bytes: VmHWM from
/// /proc/self/status on Linux, getrusage's ru_maxrss where that file is
/// unreadable or absent; 0 when neither is available (the caller reports
/// "unavailable" rather than a fake zero-byte peak — check before
/// dividing).
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

/// Current resident set size in bytes (/proc/self/statm on Linux); 0 when
/// unavailable. Unlike the peak, this can shrink, so per-phase deltas
/// (e.g. bench rows reporting bytes attributable to one scenario) stay
/// meaningful even after an earlier phase drove the peak higher.
[[nodiscard]] std::uint64_t current_rss_bytes() noexcept;

}  // namespace gridsched::obs
