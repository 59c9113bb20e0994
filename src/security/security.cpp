#include "security/security.hpp"

#include <cmath>

namespace gridsched::security {

double failure_probability(double sd, double sl, double lambda) noexcept {
  if (sd <= sl) return 0.0;
  return 1.0 - std::exp(-lambda * (sd - sl));
}

std::string to_string(RiskMode mode) {
  switch (mode) {
    case RiskMode::kSecure: return "secure";
    case RiskMode::kFRisky: return "f-risky";
    case RiskMode::kRisky: return "risky";
  }
  return "?";
}

bool RiskPolicy::admissible(double sd, double sl,
                            double lambda) const noexcept {
  switch (mode_) {
    case RiskMode::kSecure:
      return is_safe(sd, sl);
    case RiskMode::kRisky:
      return true;
    case RiskMode::kFRisky:
      return failure_probability(sd, sl, lambda) <= f_;
  }
  return false;
}

}  // namespace gridsched::security
