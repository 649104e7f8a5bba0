#include "exp/query_context.h"

#include <utility>

#include "core/worst_case.h"

namespace costsense::exp {

QueryContext::QueryContext(const catalog::Catalog& catalog, query::Query q,
                           storage::LayoutPolicy policy, bool white_box,
                           const runtime::OracleCacheOptions& cache,
                           runtime::CacheStore* store)
    : query(std::move(q)),
      layout(policy, catalog, query::ReferencedTables(query)),
      space(layout.BuildResourceSpace()),
      optimizer(catalog, layout, space),
      narrow(optimizer, query, white_box),
      // The persistence scope, e.g. "Q6/shared": figure sweeps and the
      // server share it, so either warms the other.
      stack(runtime::OracleStackBuilder()
                .WithCache(cache)
                .WithStore(store)
                .Build(narrow, query.name + "/" +
                                   storage::LayoutPolicyName(policy))),
      baseline(space.BaselineCosts()) {}

Result<std::unique_ptr<QueryContext>> QueryContext::Create(
    const catalog::Catalog& catalog, query::Query query,
    storage::LayoutPolicy policy, bool white_box,
    const runtime::OracleCacheOptions& cache, runtime::CacheStore* store) {
  std::unique_ptr<QueryContext> ctx(new QueryContext(
      catalog, std::move(query), policy, white_box, cache, store));
  if (white_box) {
    const core::OracleResult initial = ctx->stack.cache().Optimize(
        ctx->baseline);
    if (!initial.usage.has_value()) {
      return Status::Internal("white-box oracle did not reveal usage");
    }
    ctx->initial_plan_id = initial.plan_id;
    ctx->initial_usage = *initial.usage;
  } else {
    // EXPLAIN on the oracle's own prepared plan space, then the warm-up
    // probe through the cache (the one counted optimizer call).
    const Result<opt::Optimized> initial = ctx->narrow.Explain(ctx->baseline);
    if (!initial.ok()) return initial.status();
    ctx->initial_plan_id = initial->plan->id;
    ctx->initial_usage = initial->plan->usage;
    (void)ctx->stack.cache().Optimize(ctx->baseline);
  }
  return ctx;
}

std::unique_ptr<runtime::CacheStore> OpenCacheStore(
    const catalog::Catalog& catalog, const std::string& path,
    const runtime::OracleCacheOptions& cache) {
  if (path.empty()) return nullptr;
  runtime::CacheStoreOptions options;
  options.path = path;
  options.catalog_hash = catalog.Fingerprint();
  options.mantissa_bits = cache.mantissa_bits;
  return std::make_unique<runtime::CacheStore>(std::move(options));
}

Result<GtcPoint> WorstCasePoint(const core::UsageVector& initial,
                                const std::vector<core::PlanUsage>& plans,
                                const core::Box& box, double delta,
                                runtime::ThreadPool* pool) {
  Result<core::WorstCaseResult> wc =
      core::WorstCaseOverPlansByLp(initial, plans, box, pool);
  if (!wc.ok()) return wc.status();
  return GtcPoint{delta, wc->gtc, std::move(wc->worst_rival)};
}

Status WorstCaseCurve(const core::UsageVector& initial,
                      const std::vector<core::PlanUsage>& plans,
                      const core::CostVector& baseline,
                      std::span<const double> deltas,
                      runtime::ThreadPool* pool,
                      const std::function<Status(const GtcPoint&)>& emit) {
  for (const double delta : deltas) {
    const Result<GtcPoint> point = WorstCasePoint(
        initial, plans, core::Box::MultiplicativeBand(baseline, delta), delta,
        pool);
    if (!point.ok()) return point.status();
    const Status st = emit(*point);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace costsense::exp
