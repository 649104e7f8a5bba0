// Tests of the oracle stack and the per-run probe tier: the cache-only
// stack the builder stamps out, which decorators BuildProbeTier stacks
// above it, that the tier's oracle() is always the top of the chain, and
// the one ordering property the tier exists to encode — faults are
// injected *above* the cache, so retries re-enter the injector but never
// cost an extra base-optimizer call, and the cache only ever holds clean
// replies.
#include "runtime/oracle_stack.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/core/fake_oracle.h"

namespace costsense::runtime {
namespace {

std::vector<core::PlanUsage> TwoPlans() {
  return {{"scan", core::UsageVector{10.0, 1.0}},
          {"index", core::UsageVector{1.0, 10.0}}};
}

TEST(OracleStackTest, DefaultBuildIsCacheOnly) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);

  const core::CostVector probe{1.0, 2.0};
  const core::OracleResult first = stack.cache().Optimize(probe);
  const core::OracleResult second = stack.cache().Optimize(probe);
  EXPECT_EQ(first.plan_id, second.plan_id);
  EXPECT_EQ(base.calls(), 1u);  // second probe served from the cache

  const OracleCacheStats stats = stack.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(OracleStackTest, WithCacheSizingIsApplied) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleCacheOptions options;
  options.shards = 1;
  options.max_entries = 2;
  OracleStack stack = OracleStackBuilder().WithCache(options).Build(base);
  // Three distinct probes through a 2-entry cache must evict.
  for (double x : {1.0, 2.0, 3.0}) {
    (void)stack.cache().Optimize(core::CostVector{x, 1.0});
  }
  const OracleCacheStats stats = stack.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(ProbeTierTest, FaultsInjectAboveTheCacheSoRetriesAreFree) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);

  resilience::FaultInjectionOptions faults;
  faults.fault_rate = 1.0;  // every key starts a burst
  faults.max_burst = 2;
  faults.weight_transient = 1.0;
  resilience::ResilientOracleOptions retry;
  retry.max_retries = 5;  // budget > burst: recovery is guaranteed

  ProbeTier tier = BuildProbeTier(stack.cache(), retry, faults);
  ASSERT_NE(tier.injector(), nullptr);

  const core::CostVector probe{1.0, 2.0};
  const Result<core::OracleResult> reply = tier.oracle().TryOptimize(probe);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  ProbeTelemetry telemetry = tier.telemetry();
  // The burst consumed two faulting attempts, then the clean attempt fell
  // through the injector onto the (cold) cache exactly once.
  EXPECT_EQ(telemetry.faults.faults, 2u);
  EXPECT_EQ(telemetry.resilience.calls, 1u);
  EXPECT_EQ(telemetry.resilience.attempts, 3u);
  EXPECT_EQ(telemetry.resilience.retries, 2u);
  EXPECT_EQ(telemetry.resilience.failures, 0u);
  EXPECT_EQ(stack.cache().stats().misses, 1u);
  EXPECT_EQ(base.calls(), 1u);  // faults never reached the base optimizer

  // Same key again: the burst is spent, the cache is warm — no new fault,
  // no new base call.
  const Result<core::OracleResult> again = tier.oracle().TryOptimize(probe);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plan_id, reply->plan_id);
  telemetry = tier.telemetry();
  EXPECT_EQ(telemetry.faults.faults, 2u);
  EXPECT_EQ(stack.cache().stats().hits, 1u);
  EXPECT_EQ(base.calls(), 1u);
}

TEST(ProbeTierTest, ExhaustedRetryBudgetSurfacesTypedFailure) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);
  resilience::FaultInjectionOptions faults;
  faults.fault_rate = 1.0;
  faults.max_burst = 3;
  resilience::ResilientOracleOptions retry;
  retry.max_retries = 1;  // 2 attempts < burst of 3: the call must fail

  ProbeTier tier = BuildProbeTier(stack.cache(), retry, faults);
  const Result<core::OracleResult> reply =
      tier.oracle().TryOptimize(core::CostVector{1.0, 2.0});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(tier.telemetry().resilience.failures, 1u);
  EXPECT_EQ(base.calls(), 0u);  // the fault tier absorbed every attempt
}

TEST(ProbeTierTest, DefaultTopAnswersThroughTheCache) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);
  ProbeTier tier = BuildProbeTier(stack.cache(), std::nullopt);
  EXPECT_EQ(tier.injector(), nullptr);

  const Result<core::OracleResult> reply =
      tier.oracle().TryOptimize(core::CostVector{1.0, 2.0});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->plan_id.empty());

  // One probe through the top is one cache miss and one base call; no
  // resilience tier saw it.
  const ProbeTelemetry telemetry = tier.telemetry();
  EXPECT_EQ(stack.cache().stats().misses, 1u);
  EXPECT_EQ(stack.cache().stats().hits, 0u);
  EXPECT_EQ(base.calls(), 1u);
  EXPECT_EQ(telemetry.resilience.calls, 0u);
  EXPECT_EQ(telemetry.resilience.attempts, 0u);
  EXPECT_EQ(telemetry.faults.calls, 0u);
}

TEST(ProbeTierTest, InjectorExistsExactlyWhenTheFaultOptionsInject) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);
  const resilience::ResilientOracleOptions retry;

  // A retry tier over nothing to inject: the top retries, nothing faults.
  ProbeTier clean = BuildProbeTier(stack.cache(), retry);
  EXPECT_EQ(clean.injector(), nullptr);
  ASSERT_TRUE(clean.oracle().TryOptimize(core::CostVector{1.0, 2.0}).ok());
  EXPECT_EQ(clean.telemetry().resilience.calls, 1u);

  resilience::FaultInjectionOptions perturb;
  perturb.perturb_rate = 0.5;
  EXPECT_NE(BuildProbeTier(stack.cache(), retry, perturb).injector(),
            nullptr);
  resilience::FaultInjectionOptions bursts;
  bursts.fault_rate = 0.5;
  EXPECT_NE(BuildProbeTier(stack.cache(), retry, bursts).injector(), nullptr);
  // Without a retry tier the fault options are ignored.
  EXPECT_EQ(BuildProbeTier(stack.cache(), std::nullopt, bursts).injector(),
            nullptr);
}

TEST(OracleStackTest, OneBuilderStampsOutIndependentStacks) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  const OracleStackBuilder builder;
  OracleStack a = builder.Build(base);
  OracleStack b = builder.Build(base);
  const core::CostVector probe{1.0, 2.0};
  (void)a.cache().Optimize(probe);
  (void)b.cache().Optimize(probe);
  // Separate per-query stacks do not share cache state.
  EXPECT_EQ(a.cache().stats().misses, 1u);
  EXPECT_EQ(b.cache().stats().misses, 1u);
  EXPECT_EQ(base.calls(), 2u);
}

}  // namespace
}  // namespace costsense::runtime
