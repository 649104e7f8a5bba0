#include "core/risk.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/worst_case.h"

namespace costsense::core {
namespace {

TEST(RiskTest, AlwaysOptimalPlanHasFlatProfile) {
  // A dominating plan is optimal everywhere: GTC identically 1.
  const std::vector<PlanUsage> plans = {{"good", UsageVector{1.0, 1.0}},
                                        {"bad", UsageVector{2.0, 2.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 100.0);
  Rng rng(1);
  const auto profile = ComputeRiskProfile(plans[0].usage, plans, box, rng);
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->mean_gtc, 1.0);
  EXPECT_DOUBLE_EQ(profile->max_seen, 1.0);
  EXPECT_DOUBLE_EQ(profile->prob_suboptimal, 0.0);
}

TEST(RiskTest, ComplementaryPairRisksGrowWithDelta) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 0.0}},
                                        {"b", UsageVector{0.0, 1.0}}};
  Rng rng(2);
  double prev_p90 = 0.0;
  for (double delta : {2.0, 10.0, 100.0}) {
    const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, delta);
    Rng local(42);
    const auto profile =
        ComputeRiskProfile(plans[0].usage, plans, box, local, 4000);
    ASSERT_TRUE(profile.ok());
    EXPECT_GT(profile->p90, prev_p90);
    prev_p90 = profile->p90;
    // Symmetric setup: plan a loses whenever c1 > c2, half the time.
    EXPECT_NEAR(profile->prob_suboptimal, 0.5, 0.05);
  }
}

TEST(RiskTest, QuantilesOrderedAndBoundedByWorstCase) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{5.0, 1.0, 0.0}},
                                        {"b", UsageVector{1.0, 5.0, 1.0}},
                                        {"c", UsageVector{2.0, 2.0, 2.0}}};
  const Box box =
      Box::MultiplicativeBand(CostVector{1.0, 2.0, 0.5}, 50.0);
  Rng rng(3);
  const auto profile =
      ComputeRiskProfile(plans[0].usage, plans, box, rng, 3000);
  ASSERT_TRUE(profile.ok());
  EXPECT_LE(profile->p50, profile->p90);
  EXPECT_LE(profile->p90, profile->p99);
  EXPECT_LE(profile->p99, profile->max_seen);
  EXPECT_GE(profile->mean_gtc, 1.0);
  // The exact worst case upper-bounds every sample.
  const auto wc = WorstCaseOverPlansByLp(plans[0].usage, plans, box);
  ASSERT_TRUE(wc.ok());
  EXPECT_LE(profile->max_seen, wc->gtc * (1 + 1e-9));
  // And Monte Carlo over a 3-dim box should get reasonably close to it.
  EXPECT_GT(profile->max_seen, 0.2 * wc->gtc);
}

TEST(RiskTest, InvalidInputsRejected) {
  const Box box = Box::MultiplicativeBand(CostVector{1.0}, 10.0);
  Rng rng(4);
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0}, {}, box, rng).ok());
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0, 2.0},
                                  {{"a", UsageVector{1.0}}}, box, rng)
                   .ok());
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0},
                                  {{"a", UsageVector{1.0}}}, box, rng, 0)
                   .ok());
}

TEST(RiskTest, DeterministicGivenSeed) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{3.0, 1.0}},
                                        {"b", UsageVector{1.0, 3.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 20.0);
  Rng rng1(9), rng2(9);
  const auto p1 = ComputeRiskProfile(plans[0].usage, plans, box, rng1, 500);
  const auto p2 = ComputeRiskProfile(plans[0].usage, plans, box, rng2, 500);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_DOUBLE_EQ(p1->mean_gtc, p2->mean_gtc);
  EXPECT_DOUBLE_EQ(p1->p99, p2->p99);
}

TEST(RiskTest, ProfileIsPinnedBitForBit) {
  // Ten plans over five resources with a fixed usage pattern. The expected
  // fields are exact hexfloats, recorded when the sampling loop still had a
  // SIMD screening band (which ten plans triggered on AVX2 hosts); the
  // plain per-plan TotalCost loop must reproduce them bit for bit.
  std::vector<PlanUsage> plans;
  for (size_t p = 0; p < 10; ++p) {
    UsageVector u(5);
    for (size_t i = 0; i < 5; ++i) {
      u[i] = static_cast<double>((p * 7 + i * 3) % 11) * 1.5 +
             0.25 * static_cast<double>(p + 1);
    }
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  const Box box = Box::MultiplicativeBand(
      CostVector{1.0, 0.5, 2.0, 0.25, 4.0}, 30.0);
  Rng rng(2026);
  const auto profile =
      ComputeRiskProfile(plans[3].usage, plans, box, rng, 1500);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->mean_gtc, 0x1.4ee1d285b1fbcp+1);
  EXPECT_EQ(profile->p50, 0x1.80e901bb5a80cp+0);
  EXPECT_EQ(profile->p90, 0x1.2ab9a443044b2p+2);
  EXPECT_EQ(profile->p99, 0x1.38c4142408e36p+4);
  EXPECT_EQ(profile->max_seen, 0x1.813d18eb3a51fp+5);
  EXPECT_EQ(profile->prob_suboptimal, 0x1.6ff513cc1e099p-1);
  EXPECT_EQ(profile->samples, 1500u);
  EXPECT_EQ(profile->degenerate_samples, 0u);
}

}  // namespace
}  // namespace costsense::core
