#include "security/security.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

RiskCutoff::RiskCutoff(const RiskPolicy& policy, double lambda) noexcept
    : policy_(policy),
      lambda_(lambda),
      admit_to_(std::numeric_limits<double>::quiet_NaN()),
      refuse_from_(std::numeric_limits<double>::quiet_NaN()) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (policy.mode()) {
    case RiskMode::kSecure:
      // fl(sd - sl) <= 0 exactly when sd <= sl (gradual underflow), and a
      // NaN deficit falls through to is_safe.
      admit_to_ = refuse_from_ = 0.0;
      return;
    case RiskMode::kRisky:
      admit_to_ = refuse_from_ = kInf;
      return;
    case RiskMode::kFRisky:
      break;
  }
  const double f = policy.f();
  if (!(f > 0.0 && f < 1.0 && lambda > 0.0 && lambda < kInf)) return;
  const double boundary = -std::log1p(-f) / lambda;
  if (!(boundary >= std::numeric_limits<double>::min() && boundary < kInf)) {
    return;
  }
  // Eq. 1 evaluates fl(1 - exp(fl(-lambda * d))). Near d*, rounding and
  // exp's error (under an ulp) move it off the real 1 - e^(-lambda d) by
  // a few ulps of e^(-lambda d) and of f, so a computed decision can
  // differ from the real one only within a relative distance of about
  // 2^-52 (1/f + 1/(1 - f)) of d* (the 1/f term is exp's absolute error
  // over P_fail's slope at small f, the other the rounding of 1 - exp
  // over it at f near 1). The bracket is 2^16 times that wide; below it
  // the exact test admits, above it it refuses, and every d <= 0 is
  // admitted (P_fail = 0 <= f).
  const double margin = 0x1p-36 * (1.0 / f + 1.0 / (1.0 - f));
  admit_to_ = std::max(0.0, boundary * (1.0 - margin));
  refuse_from_ = boundary * (1.0 + margin);
}

}  // namespace gridsched::security
