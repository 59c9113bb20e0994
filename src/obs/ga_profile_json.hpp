// JSON rendering for GA convergence profiles (core::GaProfile). One
// document per run: an array of scheduler invocations, each with its
// per-generation series {wall_ms, evaluations, memo_hits, decodes,
// best, mean}.
// Wall-clock fields are non-deterministic by nature — this artifact is a
// profile sidecar, never a byte-stable aggregate (same contract as the
// campaign profile JSON).
#pragma once

#include <string>
#include <vector>

#include "core/ga_engine.hpp"

namespace gridsched::obs {

/// {"invocations": [{"total_wall_ms": ..., "generations": [...]}, ...]}
/// with a trailing newline.
std::string render_ga_profiles(const std::vector<core::GaProfile>& profiles);

}  // namespace gridsched::obs
