// The paper's security/risk model (Section 2).
//
// Every site advertises a security level SL; every job carries a security
// demand SD. A job running where SD > SL fails with probability
//     P(fail) = 1 - exp(-lambda * (SD - SL))        (Eq. 1)
// and 0 otherwise (fail-stop; failed jobs restart on an absolutely safe
// site). Three scheduler risk modes bound the acceptable P(fail).
#pragma once

#include <string>

namespace gridsched::security {

/// Paper defaults (Table 1): SL ~ U[0.4, 1.0], SD ~ U[0.6, 0.9].
inline constexpr double kSiteSecurityLo = 0.4;
inline constexpr double kSiteSecurityHi = 1.0;
inline constexpr double kJobDemandLo = 0.6;
inline constexpr double kJobDemandHi = 0.9;

/// Default Eq. 1 coefficient, a repo choice: the paper leaves lambda open.
/// At 2.5 the committed risky NAS cells (results/paper/nas.json) fail
/// 2150-4128 of 16000 jobs (13-26%), and f = 0.5 still binds: it bars
/// SD - SL > ln 2 / 2.5 ~ 0.28. A run's one lambda is EngineConfig::lambda
/// (README "Model parameters").
inline constexpr double kDefaultLambda = 2.5;

/// Eq. 1: probability that a job with demand `sd` fails on a site with
/// level `sl`. Zero when sd <= sl; in [0, 1) otherwise, increasing in both
/// the deficit (sd - sl) and lambda.
double failure_probability(double sd, double sl,
                           double lambda = kDefaultLambda) noexcept;

/// True iff the site fully satisfies the demand (no risk at all).
inline bool is_safe(double sd, double sl) noexcept { return sd <= sl; }

/// Scheduler risk modes (Section 2 / Figure 3).
enum class RiskMode {
  kSecure,  ///< only sites with SD <= SL are candidates
  kFRisky,  ///< sites with P(fail) <= f are candidates
  kRisky,   ///< every site is a candidate
};

std::string to_string(RiskMode mode);

/// Admission policy: a mode and its risk bound f. `secure` is equivalent to
/// f-risky with f = 0 and `risky` to f-risky with f = 1 (verified by
/// property tests). The Eq. 1 coefficient is the run's, which
/// sched::admissible passes in from the scheduler context.
class RiskPolicy {
 public:
  constexpr RiskPolicy(RiskMode mode, double f = 0.5) noexcept
      : mode_(mode), f_(f) {}

  static constexpr RiskPolicy secure() noexcept {
    return {RiskMode::kSecure, 0.0};
  }
  static constexpr RiskPolicy risky() noexcept {
    return {RiskMode::kRisky, 1.0};
  }
  static constexpr RiskPolicy f_risky(double f) noexcept {
    return {RiskMode::kFRisky, f};
  }

  [[nodiscard]] constexpr RiskMode mode() const noexcept { return mode_; }
  [[nodiscard]] constexpr double f() const noexcept { return f_; }

  /// Would this policy let a job of demand `sd` run at level `sl` when
  /// failures follow Eq. 1 at `lambda`?
  [[nodiscard]] bool admissible(double sd, double sl,
                                double lambda) const noexcept;

 private:
  RiskMode mode_;
  double f_;
};

}  // namespace gridsched::security
