#include "exp/fault_plan.hpp"

#include <chrono>
#include <thread>

#include "util/rng.hpp"

namespace gridsched::exp {

void FaultPlan::validate() const {
  if (throw_prob < 0.0 || throw_prob > 1.0) {
    throw std::invalid_argument("fault plan: throw_prob must be in [0, 1]");
  }
  if (delay_prob < 0.0 || delay_prob > 1.0) {
    throw std::invalid_argument("fault plan: delay_prob must be in [0, 1]");
  }
  if (delay_seconds < 0.0) {
    throw std::invalid_argument("fault plan: delay_seconds must be >= 0");
  }
  if (delay_prob > 0.0 && delay_seconds <= 0.0) {
    throw std::invalid_argument(
        "fault plan: delay_prob > 0 requires delay_seconds > 0");
  }
}

void maybe_inject(const FaultPlan& plan, std::uint64_t spec_seed,
                  std::string_view scenario, std::string_view policy,
                  std::size_t replication, unsigned attempt) {
  if (plan.empty()) return;
  if (!plan.scenario.empty() && plan.scenario != scenario) return;
  if (!plan.policy.empty() && plan.policy != policy) return;

  // Cell key by labels + replication (never axis indices) under a
  // dedicated "fault" domain, plus the attempt index so retries re-draw.
  // Unlike campaign::cell_seed the policy label is mixed in: a fault
  // filter or probability applies to each cell independently.
  util::Rng rng = util::SeedMix(spec_seed)
                      .mix("fault")
                      .mix(scenario)
                      .mix(policy)
                      .mix(static_cast<std::uint64_t>(replication))
                      .mix(static_cast<std::uint64_t>(attempt))
                      .rng();
  if (plan.throw_prob > 0.0 && rng.bernoulli(plan.throw_prob)) {
    throw InjectedFault("injected fault (attempt " +
                        std::to_string(attempt + 1) + ")");
  }
  if (plan.delay_prob > 0.0 && rng.bernoulli(plan.delay_prob)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(plan.delay_seconds));
  }
}

}  // namespace gridsched::exp
