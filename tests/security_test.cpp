#include "security/security.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
