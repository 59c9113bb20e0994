#include "exp/roster.hpp"

#include "sched/registry.hpp"

namespace gridsched::exp {

AlgorithmSpec heuristic_spec(const std::string& heuristic_name,
                             security::RiskPolicy policy) {
  AlgorithmSpec spec;
  auto probe = sched::make_heuristic(heuristic_name, policy);  // validates name
  spec.name = probe->name();
  spec.make = [heuristic_name, policy](std::uint64_t) {
    return sched::make_heuristic(heuristic_name, policy);
  };
  return spec;
}

AlgorithmSpec stga_spec(core::StgaConfig config) {
  AlgorithmSpec spec;
  spec.name = "STGA";
  spec.wants_training = true;
  spec.make = [config](std::uint64_t seed) {
    core::StgaConfig per_run = config;
    per_run.seed = seed;
    return core::make_stga(per_run);
  };
  return spec;
}

AlgorithmSpec classic_ga_spec(core::StgaConfig config) {
  AlgorithmSpec spec;
  spec.name = "GA";
  spec.make = [config](std::uint64_t seed) {
    core::StgaConfig per_run = config;
    per_run.seed = seed;
    return core::make_classic_ga(per_run);
  };
  return spec;
}

}  // namespace gridsched::exp
