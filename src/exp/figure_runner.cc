#include "exp/figure_runner.h"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "core/bounds.h"

namespace costsense::exp {

FigureRunner::FigureRunner(const catalog::Catalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {}

runtime::ThreadPool& FigureRunner::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : runtime::ThreadPool::Global();
}

Result<QueryAnalysis> FigureRunner::Analyze(
    const query::Query& query, storage::LayoutPolicy policy) const {
  Result<std::unique_ptr<QueryContext>> made = QueryContext::Create(
      catalog_, query, policy, options_.white_box, options_.cache,
      options_.store);
  if (!made.ok()) return made.status();
  QueryContext& ctx = **made;
  // This run's probe tier over the context's cache: the lock-free adapter,
  // or the retry (and fault) tiers when the resilience option is on.
  std::optional<runtime::resilience::ResilientOracleOptions> retry;
  if (options_.resilience.enabled) retry = options_.resilience.retry;
  runtime::ProbeTier tier = runtime::BuildProbeTier(
      ctx.stack.cache(), retry, options_.resilience.faults,
      options_.resilience.clock);

  QueryAnalysis out;
  out.query_name = query.name;
  out.policy = policy;
  out.dims = ctx.space.dims();
  out.baseline = ctx.baseline;
  out.dim_info = ctx.space.dim_info();
  out.initial_plan_id = ctx.initial_plan_id;
  out.initial_usage = ctx.initial_usage;
  out.cache_imported = ctx.stack.cache().stats().imported;

  // Discover candidate optimal plans over the widest error band; plan
  // sets for narrower bands are subsets, so one discovery serves every
  // delta (usage vectors are box-independent).
  const double delta_max = options_.deltas.back();
  const core::Box box = core::Box::MultiplicativeBand(out.baseline, delta_max);
  Rng rng(options_.seed);
  core::DiscoveryOptions discovery = options_.discovery;
  discovery.pool = &pool();
  Result<core::DiscoveryResult> d =
      core::DiscoverCandidatePlans(tier.oracle(), box, rng, discovery);
  if (!d.ok()) return d.status();
  for (core::DiscoveredPlan& dp : d->plans) {
    out.candidate_plans.push_back(std::move(dp.plan));
  }
  out.oracle_calls = ctx.narrow.calls();
  out.discovery_complete = d->complete;

  const runtime::OracleCacheStats cache = ctx.stack.cache().stats();
  const runtime::ProbeTelemetry telemetry = tier.telemetry();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_entries = cache.entries;
  out.cache_evictions = cache.evictions;
  out.oracle_probe_calls = telemetry.resilience.calls;
  out.oracle_attempts = telemetry.resilience.attempts;
  out.oracle_retries = telemetry.resilience.retries;
  out.oracle_failures = telemetry.resilience.failures;
  out.faults_injected = telemetry.faults.faults;
  out.degraded_points = d->failed_probes;
  out.probe_coverage =
      telemetry.resilience.calls == 0
          ? 1.0
          : static_cast<double>(telemetry.resilience.calls -
                                telemetry.resilience.failures) /
                static_cast<double>(telemetry.resilience.calls);
  ctx.stack.PublishToStore();
  return out;
}

std::vector<Result<QueryAnalysis>> FigureRunner::AnalyzeMany(
    const std::vector<query::Query>& queries,
    storage::LayoutPolicy policy) const {
  return pool().ParallelMap(
      queries, [&](size_t, const query::Query& q) -> Result<QueryAnalysis> {
        return Analyze(q, policy);
      });
}

Result<FigureSeries> FigureRunner::GtcSeries(
    const QueryAnalysis& analysis) const {
  FigureSeries series;
  series.query_name = analysis.query_name;
  series.num_candidate_plans = analysis.candidate_plans.size();
  series.constant_bound =
      core::WorstCaseConstantBound(analysis.candidate_plans);
  series.has_complementary_plans = std::isinf(series.constant_bound);
  const Status st = WorstCaseCurve(
      analysis.initial_usage, analysis.candidate_plans, analysis.baseline,
      options_.deltas, &pool(), [&series](const GtcPoint& p) {
        series.points.push_back(p);
        return Status::Ok();
      });
  if (!st.ok()) return st;
  return series;
}

core::ComplementarityReport FigureRunner::Complementarity(
    const QueryAnalysis& analysis) const {
  return core::AnalyzePlanSet(analysis.candidate_plans, analysis.dim_info);
}

}  // namespace costsense::exp
