// The resilience layer's contracts: seeded fault injection is
// deterministic at any thread count and probe order, bounded retry absorbs
// fault bursts byte-identically, exhausted budgets degrade with exact
// accounting (driver-side degraded counts reconcile against the injector's
// own fault log), and checkpointed sweeps resume without re-probing clean
// work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/discovery.h"
#include "core/feasible_region.h"
#include "core/oracle.h"
#include "core/usage_extraction.h"
#include "core/worst_case.h"
#include "runtime/resilience/checkpoint.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"
#include "runtime/thread_pool.h"
#include "tests/core/fake_oracle.h"

namespace costsense::runtime::resilience {
namespace {

using core::Box;
using core::CostVector;
using core::FakeOracle;
using core::OracleResult;
using core::PlanUsage;
using core::UsageVector;

std::vector<PlanUsage> MakePlans(size_t dims, size_t count) {
  Rng rng(0x9a5u ^ 42u);
  std::vector<PlanUsage> plans;
  for (size_t p = 0; p < count; ++p) {
    PlanUsage plan;
    plan.plan_id = "plan-" + std::to_string(p);
    plan.usage = UsageVector(dims);
    for (size_t d = 0; d < dims; ++d) {
      plan.usage[d] = rng.Uniform(0.1, 2.0);
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<CostVector> MakeProbePoints(const Box& box, size_t count) {
  Rng rng(777);
  std::vector<CostVector> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(box.SampleLogUniform(rng));
  }
  return points;
}

TEST(ManualClockTest, AdvancesOnlyOnSleepOrAdvance) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
  EXPECT_EQ(clock.NowNanos(), 100u);
  clock.SleepFor(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  clock.Advance(8);
  EXPECT_EQ(clock.NowNanos(), 158u);
}

TEST(FaultInjectorTest, BurstsAreDeterministicPerKeyAndReplayAfterReset) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions options;
  options.fault_rate = 1.0;  // every key bursts, capped at max_burst
  options.max_burst = 3;
  FaultInjectingOracle injector(base, options);

  const CostVector c = {1.0, 2.0, 3.0};
  std::vector<bool> first;
  for (int i = 0; i < 6; ++i) first.push_back(injector.TryOptimize(c).ok());
  // Exactly the first max_burst attempts fault, every later attempt is
  // clean.
  EXPECT_EQ(first, (std::vector<bool>{false, false, false, true, true, true}));

  injector.Reset();
  std::vector<bool> second;
  for (int i = 0; i < 6; ++i) second.push_back(injector.TryOptimize(c).ok());
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorTest, FaultLogIsIndependentOfOrderAndThreadCount) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 200);

  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions options;
  options.fault_rate = 0.3;
  FaultInjectingOracle injector(base, options);

  for (const CostVector& c : points) (void)injector.TryOptimize(c);
  const FaultLog serial = injector.log();
  EXPECT_GT(serial.faults, 0u);
  EXPECT_EQ(serial.calls, points.size());

  injector.Reset();
  ThreadPool pool(3);
  // Reverse order, concurrent: the log must not notice.
  (void)pool.ParallelFor(points.size(), [&](size_t i) {
    (void)injector.TryOptimize(points[points.size() - 1 - i]);
    return Status::Ok();
  });
  const FaultLog parallel = injector.log();
  EXPECT_EQ(serial.calls, parallel.calls);
  EXPECT_EQ(serial.faults, parallel.faults);
  EXPECT_EQ(serial.transient, parallel.transient);
  EXPECT_EQ(serial.faulty_keys, parallel.faulty_keys);
  EXPECT_EQ(serial.clean_calls, parallel.clean_calls);
}

TEST(FaultInjectorTest, FaultKindsFollowTheConfiguredWeights) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  const CostVector c = {1.0, 2.0, 3.0};

  {  // Garbage cost: a reply arrives, but its total cost is non-finite.
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_garbage_cost = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(std::isfinite(r->total_cost));
    EXPECT_EQ(injector.log().garbage_cost, 1u);
  }
  {  // Invalid plan id: the reply's plan id is empty (stale handle).
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_invalid_plan = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->plan_id.empty());
  }
  {  // Transient: a typed kUnavailable error, no reply at all.
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  {  // Latency: a clean reply whose service time is charged to the clock.
    ManualClock clock;
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_latency = 1.0;
    options.latency_nanos = 5000;
    FaultInjectingOracle injector(base, options, &clock);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->plan_id.empty());
    EXPECT_EQ(clock.NowNanos(), 5000u);
  }
}

TEST(ResilientOracleTest, RetryBudgetAbsorbsBurstsByteIdentically) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 64);
  const std::vector<PlanUsage> plans = MakePlans(3, 4);

  FakeOracle clean(plans, /*white_box=*/false);
  FakeOracle faulted(plans, /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;  // worst case: every key bursts max_burst deep
  faults.max_burst = 3;
  FaultInjectingOracle injector(faulted, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 5;  // > max_burst, so recovery is guaranteed
  ResilientOracle resilient(injector, retry, &clock);

  for (const CostVector& c : points) {
    const OracleResult want = clean.Optimize(c);
    const Result<OracleResult> got = resilient.TryOptimize(c);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->plan_id, want.plan_id);
    EXPECT_EQ(got->total_cost, want.total_cost);  // bitwise, not approximate
  }
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.calls, points.size());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.recovered, points.size());
  EXPECT_EQ(stats.retries, 3 * points.size());
  EXPECT_GT(stats.backoff_waited_ns, 0u);
}

TEST(ResilientOracleTest, ZeroRetryBudgetSurfacesEveryFaultExactly) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 200);

  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions faults;
  faults.fault_rate = 0.3;
  FaultInjectingOracle injector(base, faults);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  ResilientOracle resilient(injector, retry);

  for (const CostVector& c : points) (void)resilient.TryOptimize(c);

  // The degraded-accounting identity: with no retries, each injected fault
  // event is exactly one surfaced failure.
  const ResilienceStats stats = resilient.stats();
  const FaultLog log = injector.log();
  EXPECT_GT(log.faults, 0u);
  EXPECT_EQ(stats.failures, log.faults);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.calls, points.size());
}

TEST(ResilientOracleTest, ValidationConvertsGarbageRepliesToTypedErrors) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  const CostVector c = {1.0, 2.0, 3.0};

  {
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    faults.weight_transient = 0.0;
    faults.weight_garbage_cost = 1.0;
    FaultInjectingOracle injector(base, faults);
    ResilientOracleOptions retry;
    retry.max_retries = 0;
    ResilientOracle resilient(injector, retry);
    const Result<OracleResult> r = resilient.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("non-finite"), std::string::npos);
    EXPECT_EQ(resilient.stats().invalid_replies, 1u);
  }
  {
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    faults.weight_transient = 0.0;
    faults.weight_invalid_plan = 1.0;
    FaultInjectingOracle injector(base, faults);
    ResilientOracleOptions retry;
    retry.max_retries = 0;
    ResilientOracle resilient(injector, retry);
    const Result<OracleResult> r = resilient.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("plan id"), std::string::npos);
  }
}

TEST(ResilientOracleTest, PerCallDeadlineDiscardsSlowRepliesThenRecovers) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;
  faults.max_burst = 1;
  faults.weight_transient = 0.0;
  faults.weight_latency = 1.0;
  faults.latency_nanos = 10'000;
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 2;
  retry.per_call_deadline_ns = 1000;  // slower replies are discarded
  ResilientOracle resilient(injector, retry, &clock);

  const Result<OracleResult> r = resilient.TryOptimize({1.0, 2.0, 3.0});
  ASSERT_TRUE(r.ok());  // the burst is 1 deep; the retry lands clean
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ResilientOracleTest, RunBudgetFailsFastAndResets) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectingOracle injector(base, FaultInjectionOptions{});  // no faults
  ResilientOracleOptions retry;
  retry.run_deadline_ns = 1000;
  ResilientOracle resilient(injector, retry, &clock);

  clock.Advance(5000);  // the sweep's budget is long spent
  const Result<OracleResult> r1 = resilient.TryOptimize({1.0, 2.0, 3.0});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resilient.stats().attempts, 0u);  // failed fast, no base call

  resilient.ResetBudget();
  const Result<OracleResult> r2 = resilient.TryOptimize({1.0, 2.0, 3.0});
  EXPECT_TRUE(r2.ok());
}

TEST(ResilientOracleTest, BreakerOpensShortCircuitsAndHalfOpens) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;
  faults.max_burst = 1000;  // effectively always faulting
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  retry.breaker_threshold = 2;
  retry.breaker_cooldown_ns = 1000;
  retry.backoff_base_ns = 0;
  ResilientOracle resilient(injector, retry, &clock);

  const CostVector c = {1.0, 2.0, 3.0};
  EXPECT_FALSE(resilient.TryOptimize(c).ok());
  EXPECT_FALSE(resilient.TryOptimize(c).ok());  // second failure trips it
  EXPECT_EQ(resilient.stats().breaker_trips, 1u);

  const Result<OracleResult> shorted = resilient.TryOptimize(c);
  ASSERT_FALSE(shorted.ok());
  EXPECT_EQ(shorted.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(resilient.stats().breaker_short_circuits, 1u);
  EXPECT_EQ(resilient.stats().attempts, 2u);  // open = no base traffic

  clock.Advance(2000);  // past the cooldown: one probe is let through
  EXPECT_FALSE(resilient.TryOptimize(c).ok());
  EXPECT_EQ(resilient.stats().attempts, 3u);      // the half-open probe ran
  EXPECT_EQ(resilient.stats().breaker_trips, 2u);  // and re-opened it
}

TEST(ResilientOracleTest, BackoffScheduleIsDeterministic) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  auto run = [&plans]() {
    FakeOracle base(plans, /*white_box=*/false);
    ManualClock clock;
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    FaultInjectingOracle injector(base, faults, &clock);
    ResilientOracleOptions retry;
    retry.max_retries = 5;
    ResilientOracle resilient(injector, retry, &clock);
    (void)resilient.TryOptimize({1.0, 2.0, 3.0});
    (void)resilient.TryOptimize({3.0, 2.0, 1.0});
    return resilient.stats().backoff_waited_ns;
  };
  const uint64_t first = run();
  const uint64_t second = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Fallible vertex sweeps.

struct SweepFixture {
  std::vector<PlanUsage> plans = MakePlans(8, 6);
  Box box = Box::MultiplicativeBand(CostVector(8, 1.0), 50.0);
  UsageVector initial = plans[0].usage;
};

TEST(FallibleSweepTest, MatchesInfallibleSweepWhenNothingFaults) {
  SweepFixture fx;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    ThreadPool pool(threads);
    FakeOracle base_a(fx.plans, /*white_box=*/false);
    const Result<core::WorstCaseResult> want = core::WorstCaseByVertexSweep(
        base_a, fx.initial, fx.box, 20, &pool);
    ASSERT_TRUE(want.ok());

    FakeOracle base_b(fx.plans, /*white_box=*/false);
    core::InfallibleOracleAdapter adapter(base_b);
    const Result<core::WorstCaseResult> got = core::WorstCaseByVertexSweep(
        adapter, fx.initial, fx.box, 20, &pool);
    ASSERT_TRUE(got.ok());

    EXPECT_EQ(got->gtc, want->gtc);
    EXPECT_EQ(got->worst_costs, want->worst_costs);
    EXPECT_EQ(got->worst_rival, want->worst_rival);
    EXPECT_EQ(got->failed_vertices, 0u);
    EXPECT_EQ(got->total_vertices, fx.box.VertexCount());
    EXPECT_EQ(got->coverage, 1.0);
  }
}

TEST(FallibleSweepTest, ZeroBudgetDegradationAccountsEveryFault) {
  SweepFixture fx;
  FakeOracle base(fx.plans, /*white_box=*/false);
  FaultInjectionOptions faults;
  faults.fault_rate = 0.3;
  FaultInjectingOracle injector(base, faults);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  ResilientOracle resilient(injector, retry);

  const Result<core::WorstCaseResult> r =
      core::WorstCaseByVertexSweep(resilient, fx.initial, fx.box, 20);
  ASSERT_TRUE(r.ok());  // degraded, not failed
  const FaultLog log = injector.log();
  EXPECT_GT(r->failed_vertices, 0u);
  EXPECT_EQ(r->failed_vertices, log.faults);
  EXPECT_EQ(r->failed_vertices, resilient.stats().failures);
  EXPECT_EQ(r->total_vertices, fx.box.VertexCount());
  EXPECT_EQ(r->coverage,
            static_cast<double>(r->total_vertices - r->failed_vertices) /
                static_cast<double>(r->total_vertices));
  EXPECT_LT(r->coverage, 1.0);
}

TEST(FallibleSweepTest, CheckpointResumeRepaysOnlyFailedBlocks) {
  SweepFixture fx;
  FakeOracle clean(fx.plans, /*white_box=*/false);
  const Result<core::WorstCaseResult> want =
      core::WorstCaseByVertexSweep(clean, fx.initial, fx.box, 20);
  ASSERT_TRUE(want.ok());

  FakeOracle base(fx.plans, /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  // Low enough that a decent fraction of 16-vertex blocks complete clean
  // (0.95^16 ~= 44%), high enough that several blocks fail.
  faults.fault_rate = 0.05;
  FaultInjectingOracle injector(base, faults, &clock);

  // First attempt: no retry budget, so faulted vertices fail and their
  // blocks stay unstored.
  ResilientOracleOptions no_retry;
  no_retry.max_retries = 0;
  ResilientOracle degraded(injector, no_retry, &clock);
  SweepCheckpoint ckpt(16);
  const uint64_t num_blocks =
      (fx.box.VertexCount() + ckpt.block_size() - 1) / ckpt.block_size();
  const Result<core::WorstCaseResult> first = core::WorstCaseByVertexSweep(
      degraded, fx.initial, fx.box, 20, /*pool=*/nullptr, &ckpt);
  ASSERT_TRUE(first.ok());
  EXPECT_LT(first->coverage, 1.0);
  EXPECT_LT(ckpt.blocks(), num_blocks);
  EXPECT_GT(ckpt.blocks(), 0u);

  // Snapshot/restore survives the trip bit-for-bit.
  const std::string snapshot = ckpt.Serialize();
  Result<SweepCheckpoint> loaded = SweepCheckpoint::Deserialize(snapshot);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->blocks(), ckpt.blocks());
  EXPECT_EQ(loaded->block_size(), ckpt.block_size());

  // Resume with an adequate retry budget against the same injector: only
  // the failed blocks re-probe (stored blocks cost zero oracle calls), and
  // the finished result is byte-identical to the fault-free sweep.
  ResilientOracleOptions with_retry;
  with_retry.max_retries = 5;
  ResilientOracle recovering(injector, with_retry, &clock);
  const size_t calls_before = base.calls();
  SweepCheckpoint resumed = std::move(loaded).value();
  const Result<core::WorstCaseResult> second = core::WorstCaseByVertexSweep(
      recovering, fx.initial, fx.box, 20, /*pool=*/nullptr, &resumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->coverage, 1.0);
  EXPECT_EQ(second->gtc, want->gtc);
  EXPECT_EQ(second->worst_costs, want->worst_costs);
  EXPECT_EQ(second->worst_rival, want->worst_rival);
  EXPECT_EQ(resumed.blocks(), num_blocks);
  EXPECT_LT(base.calls() - calls_before, fx.box.VertexCount());
}

TEST(CheckpointTest, SerializeRoundTripPreservesBlocksExactly) {
  SweepCheckpoint ckpt(64);
  SweepBlockResult a;
  a.gtc = 1.0 + 1e-16;  // bit pattern that %g would destroy
  a.mask = 0xdeadbeefULL;
  a.rival = "nested loop (orders x lineitem)";  // spaces survive
  a.any = true;
  a.degenerate = 7;
  ckpt.Store(3, a);
  SweepBlockResult b;  // defaults: no record in this block
  ckpt.Store(9, b);

  Result<SweepCheckpoint> loaded = SweepCheckpoint::Deserialize(
      ckpt.Serialize());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->block_size(), 64u);
  SweepBlockResult got;
  ASSERT_TRUE(loaded->Lookup(3, &got));
  EXPECT_EQ(got.gtc, a.gtc);
  EXPECT_EQ(got.mask, a.mask);
  EXPECT_EQ(got.rival, a.rival);
  EXPECT_EQ(got.any, a.any);
  EXPECT_EQ(got.degenerate, a.degenerate);
  ASSERT_TRUE(loaded->Lookup(9, &got));
  EXPECT_FALSE(got.any);
  EXPECT_FALSE(loaded->Lookup(4, &got));
}

TEST(CheckpointTest, MalformedSnapshotsAreTypedErrors) {
  EXPECT_EQ(SweepCheckpoint::Deserialize("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepCheckpoint::Deserialize("not-a-checkpoint v1 block_size=4\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepCheckpoint::Deserialize(
                "costsense-sweep-checkpoint v99 block_size=4\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepCheckpoint::Deserialize(
                "costsense-sweep-checkpoint v1 block_size=4\ngarbage line\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Degradation-aware discovery.

core::DiscoveryOptions SmallDiscoveryOptions() {
  core::DiscoveryOptions options;
  options.random_samples = 8;
  options.bisection_depth = 2;
  options.completeness_rounds = 1;
  return options;
}

TEST(ResilientDiscoveryTest, NarrowModeEquivalentWhenRetriesAbsorbFaults) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);

  FakeOracle clean(plans, /*white_box=*/false);
  Rng rng_clean(123);
  const Result<core::DiscoveryResult> want = core::DiscoverCandidatePlans(
      clean, box, rng_clean, SmallDiscoveryOptions());
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->plans.size(), 1u);

  FakeOracle base(plans, /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 0.3;
  faults.max_burst = 3;
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 5;
  ResilientOracle resilient(injector, retry, &clock);
  Rng rng_faulted(123);
  const Result<core::DiscoveryResult> got = core::DiscoverCandidatePlans(
      resilient, box, rng_faulted, SmallDiscoveryOptions());
  ASSERT_TRUE(got.ok());

  // Retries absorb every burst, so the discovered set — witnesses, ids,
  // and the least-squares-extracted usage vectors — is bitwise identical.
  EXPECT_EQ(got->failed_probes, 0u);
  ASSERT_EQ(got->plans.size(), want->plans.size());
  for (size_t i = 0; i < want->plans.size(); ++i) {
    EXPECT_EQ(got->plans[i].plan.plan_id, want->plans[i].plan.plan_id);
    EXPECT_EQ(got->plans[i].plan.usage, want->plans[i].plan.usage);
    EXPECT_EQ(got->plans[i].witness, want->plans[i].witness);
    EXPECT_EQ(got->plans[i].usage_from_least_squares,
              want->plans[i].usage_from_least_squares);
  }
  EXPECT_GT(injector.log().faults, 0u);  // faults really were injected
  EXPECT_GT(resilient.stats().recovered, 0u);
}

TEST(ResilientDiscoveryTest, ZeroBudgetDegradationReconcilesWithFaultLog) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);

  FakeOracle base(plans, /*white_box=*/false);
  FaultInjectionOptions faults;
  faults.fault_rate = 0.2;
  FaultInjectingOracle injector(base, faults);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  ResilientOracle resilient(injector, retry);
  Rng rng(123);
  const Result<core::DiscoveryResult> d = core::DiscoverCandidatePlans(
      resilient, box, rng, SmallDiscoveryOptions());
  ASSERT_TRUE(d.ok());  // degraded, not dead

  const FaultLog log = injector.log();
  EXPECT_GT(log.faults, 0u);
  EXPECT_EQ(d->failed_probes, log.faults);
  EXPECT_EQ(d->failed_probes, resilient.stats().failures);
}

// ---------------------------------------------------------------------------
// Extraction under bounded optimizer noise (property test) and
// rank-deficiency.

TEST(NoisyExtractionTest, RecoversUsageWithinToleranceUnderBoundedNoise) {
  // pA's region of influence is ample around its witness; a persistent
  // per-key relative cost perturbation of 0.5% must not move the
  // least-squares estimate more than a few percent.
  const std::vector<PlanUsage> plans = {
      {"pA", {1.0, 0.2, 0.2}},
      {"pB", {0.2, 1.0, 0.2}},
      {"pC", {0.2, 0.2, 1.0}},
  };
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 4.0);
  const CostVector seed_point = {0.25, 2.0, 2.0};  // deep inside pA's region

  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    FakeOracle base(plans, /*white_box=*/false);
    FaultInjectionOptions faults;
    faults.perturb_rate = 1.0;  // every key carries bounded noise
    faults.perturb_rel_error = 0.005;
    faults.seed = 0xFA17FA17 + seed;
    FaultInjectingOracle injector(base, faults);

    Rng rng(1000 + seed);
    core::ExtractionTelemetry telemetry;
    const Result<core::ExtractedUsage> got = core::ExtractUsageVector(
        injector, "pA", seed_point, box, rng, core::ExtractionOptions{},
        &telemetry);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->usage.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(got->usage[i], plans[0].usage[i], 0.05)
          << "seed " << seed << " component " << i;
    }
    EXPECT_GT(injector.log().perturbed_calls, 0u);
    EXPECT_EQ(telemetry.failed_probes, 0u);
  }
}

TEST(NoisyExtractionTest, RankDeficientProbeMatrixIsATypedError) {
  const std::vector<PlanUsage> plans = MakePlans(3, 3);
  // A degenerate (zero-volume) box collapses every jittered sample onto
  // the seed point: the probe matrix has rank 1 and the fit must refuse.
  const Box box({2.0, 2.0, 2.0}, {2.0, 2.0, 2.0});
  const CostVector seed_point = {2.0, 2.0, 2.0};
  FakeOracle base(plans, /*white_box=*/false);
  const std::string plan_at_seed = base.Optimize(seed_point).plan_id;

  core::InfallibleOracleAdapter adapter(base);
  Rng rng(7);
  core::ExtractionTelemetry telemetry;
  const Result<core::ExtractedUsage> got = core::ExtractUsageVector(
      adapter, plan_at_seed, seed_point, box, rng, core::ExtractionOptions{},
      &telemetry);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("unusable"), std::string::npos);
  EXPECT_GT(telemetry.oracle_calls, 0u);  // telemetry filled despite error
}

}  // namespace
}  // namespace costsense::runtime::resilience
