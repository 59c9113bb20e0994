#include "security/security.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gridsched::security {
namespace {

// ------------------------------------------------------ Eq. 1 behaviour ---

TEST(FailureProbability, ZeroWhenSafe) {
  EXPECT_DOUBLE_EQ(failure_probability(0.6, 0.6), 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(0.6, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(0.0, 1.0), 0.0);
}

TEST(FailureProbability, MatchesClosedForm) {
  const double lambda = 3.0;
  EXPECT_NEAR(failure_probability(0.9, 0.4, lambda),
              1.0 - std::exp(-lambda * 0.5), 1e-12);
  EXPECT_NEAR(failure_probability(0.7, 0.6, lambda),
              1.0 - std::exp(-lambda * 0.1), 1e-12);
}

TEST(FailureProbability, DefaultLambdaIsApplied) {
  EXPECT_NEAR(failure_probability(0.9, 0.4),
              1.0 - std::exp(-kDefaultLambda * 0.5), 1e-12);
}

TEST(FailureProbability, ApproachesOneForExtremeDeficits) {
  EXPECT_LT(failure_probability(1.0, 0.0, 5.0), 1.0);
  EXPECT_GT(failure_probability(1.0, 0.0, 5.0), 0.99);
  // With an enormous lambda the double rounds to exactly 1.
  EXPECT_DOUBLE_EQ(failure_probability(1.0, 0.0, 1000.0), 1.0);
}

/// Property grid: bounds and monotonicity of Eq. 1 in sd, sl and lambda.
class FailureModelProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FailureModelProperty, BoundsAndMonotonicity) {
  const auto [sd, sl, lambda] = GetParam();
  const double p = failure_probability(sd, sl, lambda);
  EXPECT_GE(p, 0.0);
  EXPECT_LT(p, 1.0);
  if (sd <= sl) {
    EXPECT_DOUBLE_EQ(p, 0.0);
  } else {
    EXPECT_GT(p, 0.0);
  }
  // Monotone in demand, antitone in level, monotone in lambda.
  EXPECT_LE(p, failure_probability(sd + 0.05, sl, lambda));
  EXPECT_GE(p, failure_probability(sd, sl + 0.05, lambda));
  EXPECT_LE(p, failure_probability(sd, sl, lambda + 0.5) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FailureModelProperty,
    ::testing::Combine(::testing::Values(0.6, 0.7, 0.8, 0.9),
                       ::testing::Values(0.4, 0.55, 0.7, 0.85, 1.0),
                       ::testing::Values(0.5, 1.0, 3.0, 10.0)));

// ----------------------------------------------------------- Risk modes ---

TEST(RiskPolicy, SecureAdmitsOnlySafeSites) {
  const RiskPolicy policy = RiskPolicy::secure();
  EXPECT_TRUE(policy.admissible(0.7, 0.7, kDefaultLambda));
  EXPECT_TRUE(policy.admissible(0.7, 0.9, kDefaultLambda));
  EXPECT_FALSE(policy.admissible(0.7, 0.69, kDefaultLambda));
}

TEST(RiskPolicy, RiskyAdmitsEverything) {
  const RiskPolicy policy = RiskPolicy::risky();
  EXPECT_TRUE(policy.admissible(0.9, 0.4, kDefaultLambda));
  EXPECT_TRUE(policy.admissible(0.9, 1.0, kDefaultLambda));
}

TEST(RiskPolicy, FRiskyBoundsFailureProbability) {
  const double f = 0.5;
  const RiskPolicy policy = RiskPolicy::f_risky(f);
  for (const double lambda : {1.5, kDefaultLambda, 4.0, 6.0}) {
    for (double sd = 0.6; sd <= 0.9; sd += 0.05) {
      for (double sl = 0.4; sl <= 1.0; sl += 0.05) {
        if (policy.admissible(sd, sl, lambda)) {
          EXPECT_LE(failure_probability(sd, sl, lambda), f) << lambda;
        } else {
          EXPECT_GT(failure_probability(sd, sl, lambda), f) << lambda;
        }
      }
    }
  }
}

TEST(RiskPolicy, FZeroEquivalentToSecure) {
  const RiskPolicy f0 = RiskPolicy::f_risky(0.0);
  const RiskPolicy secure = RiskPolicy::secure();
  for (double sd = 0.6; sd <= 0.9; sd += 0.03) {
    for (double sl = 0.4; sl <= 1.0; sl += 0.03) {
      EXPECT_EQ(f0.admissible(sd, sl, kDefaultLambda),
                secure.admissible(sd, sl, kDefaultLambda))
          << "sd=" << sd << " sl=" << sl;
    }
  }
}

TEST(RiskPolicy, FOneEquivalentToRisky) {
  const RiskPolicy f1 = RiskPolicy::f_risky(1.0);
  const RiskPolicy risky = RiskPolicy::risky();
  for (double sd = 0.6; sd <= 0.9; sd += 0.03) {
    for (double sl = 0.4; sl <= 1.0; sl += 0.03) {
      EXPECT_EQ(f1.admissible(sd, sl, kDefaultLambda),
                risky.admissible(sd, sl, kDefaultLambda));
    }
  }
}

/// Admissible sets grow monotonically with f.
class RiskMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(RiskMonotonicity, LargerFAdmitsSuperset) {
  const double f = GetParam();
  const RiskPolicy smaller = RiskPolicy::f_risky(f);
  const RiskPolicy larger = RiskPolicy::f_risky(f + 0.2);
  for (double sd = 0.6; sd <= 0.9; sd += 0.02) {
    for (double sl = 0.4; sl <= 1.0; sl += 0.02) {
      if (smaller.admissible(sd, sl, kDefaultLambda)) {
        EXPECT_TRUE(larger.admissible(sd, sl, kDefaultLambda));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FSweep, RiskMonotonicity,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7));

// ---------------------------------------------------------- Risk cutoff ---

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Counts the (sd, sl) pairs where the cutoff and the definition disagree,
/// and names the first.
struct CutoffCheck {
  CutoffCheck(const RiskPolicy& checked_policy, double checked_lambda)
      : policy(checked_policy),
        lambda(checked_lambda),
        cutoff(checked_policy, checked_lambda) {}

  RiskPolicy policy;
  double lambda;
  RiskCutoff cutoff;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;

  void operator()(double sd, double sl) {
    ++checked;
    const bool expected =
        policy.mode() == RiskMode::kFRisky
            ? failure_probability(sd, sl, lambda) <= policy.f()
            : policy.admissible(sd, sl, lambda);
    if (cutoff.admits(sd, sl) == expected) return;
    if (mismatches++ == 0) {
      std::ostringstream text;
      text.precision(17);
      text << "sd=" << sd << " sl=" << sl << " expected " << expected;
      first = text.str();
    }
  }
};

/// Every deficit within `ulps` steps of `at`, as (d, 0) and (0.4 + d, 0.4).
void sweep_ulps(CutoffCheck& check, double at, int ulps) {
  double d = at;
  for (int i = 0; i < ulps; ++i) d = std::nextafter(d, -kInf);
  for (int i = 0; i <= 2 * ulps; ++i) {
    check(d, 0.0);
    check(0.4 + d, 0.4);
    d = std::nextafter(d, kInf);
  }
}

TEST(RiskCutoff, EqualsEquationOneOnEveryInput) {
  // The boundary deficit d* = -log1p(-f) / lambda, both ends of the exp
  // bracket, and a +-1e-6 relative band around d*, ulp by ulp where the
  // decision turns and in 2001 steps across the band; then 10^6 seeded
  // pairs (sd <= sl in half of them), and NaN and infinite inputs.
  const std::vector<double> specials = {kNaN, kInf, -kInf, 0.0, -0.0, 0.4,
                                        1.0, 1e308, -1e308, 5e-324};
  std::uint64_t stream = 0;
  for (const double lambda : {0.0, 1e-6, 2.5, 1e3}) {
    for (const double f : {-0.1, 0.0, 1e-12, 0.01, 0.5, 0.99, 1.0, 1.5}) {
      const RiskPolicy policy = RiskPolicy::f_risky(f);
      CutoffCheck check(policy, lambda);
      const double boundary = -std::log1p(-f) / lambda;
      if (std::isfinite(boundary) && boundary > 0.0) {
        sweep_ulps(check, boundary, 64);
        for (int i = -1000; i <= 1000; ++i) {
          const double d = boundary * (1.0 + 1e-9 * i);
          check(d, 0.0);
          check(0.4 + d, 0.4);
        }
      }
      for (const double end : {check.cutoff.admit_to(),
                               check.cutoff.refuse_from()}) {
        if (std::isfinite(end)) sweep_ulps(check, end, 64);
      }
      util::Rng rng = util::Rng::child(0xc0ffee, stream++);
      for (int i = 0; i < 1000000; ++i) {
        // A deficit up to 4 d* (or up to 1 where there is no d*), either
        // sign, at a random level.
        const double scale =
            std::isfinite(boundary) && boundary > 0.0 ? 4.0 * boundary : 1.0;
        const double sl = rng.uniform();
        check(sl + rng.uniform(-scale, scale), sl);
      }
      for (const double sd : specials) {
        for (const double sl : specials) check(sd, sl);
      }
      EXPECT_EQ(check.mismatches, 0u)
          << "lambda=" << lambda << " f=" << f << " first: " << check.first
          << " of " << check.checked;
    }
  }
}

TEST(RiskCutoff, SecureAndRiskyEqualTheirPolicies) {
  const std::vector<double> values = {kNaN, kInf, -kInf, 0.0, -0.0, 0.3,
                                      0.4, 0.6999999999999999, 0.7, 1.0};
  for (const double lambda : {0.0, 2.5}) {
    for (const RiskPolicy& policy :
         {RiskPolicy::secure(), RiskPolicy::risky()}) {
      CutoffCheck check(policy, lambda);
      for (const double sd : values) {
        for (const double sl : values) check(sd, sl);
      }
      EXPECT_EQ(check.mismatches, 0u) << check.first;
    }
  }
}

TEST(RiskCutoff, BracketIsNarrowForTheUsualPolicies) {
  // Only deficits inside the bracket (or NaN ones) need exp: for f in
  // [0.01, 0.99] it spans under 1e-8 of d*.
  for (const double f : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    const RiskCutoff cutoff(RiskPolicy::f_risky(f), kDefaultLambda);
    const double boundary = -std::log1p(-f) / kDefaultLambda;
    EXPECT_LT(cutoff.admit_to(), boundary) << f;
    EXPECT_GT(cutoff.refuse_from(), boundary) << f;
    EXPECT_LT((cutoff.refuse_from() - cutoff.admit_to()) / boundary, 1e-8)
        << f;
    EXPECT_FALSE(cutoff.undecided(0.0));
    EXPECT_FALSE(cutoff.undecided(1.0));
    EXPECT_TRUE(cutoff.undecided(boundary));
    EXPECT_TRUE(cutoff.undecided(kNaN));
  }
  // A policy no compare can decide has no bracket: every call is exact.
  const RiskCutoff f_zero(RiskPolicy::f_risky(0.0), kDefaultLambda);
  EXPECT_TRUE(std::isnan(f_zero.admit_to()));
  EXPECT_TRUE(f_zero.undecided(0.5));
}

TEST(RiskPolicy, ModeNames) {
  EXPECT_EQ(to_string(RiskMode::kSecure), "secure");
  EXPECT_EQ(to_string(RiskMode::kFRisky), "f-risky");
  EXPECT_EQ(to_string(RiskMode::kRisky), "risky");
}

TEST(RiskPolicy, AccessorsRoundTrip) {
  const RiskPolicy policy = RiskPolicy::f_risky(0.25);
  EXPECT_EQ(policy.mode(), RiskMode::kFRisky);
  EXPECT_DOUBLE_EQ(policy.f(), 0.25);
}

}  // namespace
}  // namespace gridsched::security
