// Algorithm specs: a named factory for one scheduler per run. The paper's
// rosters (Table 2's seven algorithms, Fig. 10's three) are data, the
// policy lists of examples/campaigns/paper/*.json, resolved through
// campaign::PolicyRef.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/ga_scheduler.hpp"
#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::exp {

struct AlgorithmSpec {
  std::string name;
  /// Fresh scheduler per run; `seed` feeds the GA's stochastic components.
  std::function<std::unique_ptr<sim::BatchScheduler>(std::uint64_t seed)> make;
  /// True for STGA-style schedulers that want the 500-job training phase.
  bool wants_training = false;
};

/// Single-algorithm specs, composable in custom experiments.
AlgorithmSpec heuristic_spec(const std::string& heuristic_name,
                             security::RiskPolicy policy);
AlgorithmSpec stga_spec(core::StgaConfig config = {});
AlgorithmSpec classic_ga_spec(core::StgaConfig config = {});

}  // namespace gridsched::exp
