#ifndef COSTSENSE_EXP_QUERY_CONTEXT_H_
#define COSTSENSE_EXP_QUERY_CONTEXT_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "core/feasible_region.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_stack.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"

namespace costsense::exp {

/// One (TPC-H query, storage layout) pair, materialized once and shared by
/// every analysis of it: the optimizer and its NarrowOptimizer view, the
/// DB2-default baseline costs, the initial plan optimal there, and the
/// cache-only OracleStack under the pair's persistence scope
/// "<query>/<layout>". A figure analysis builds one per call; the serve
/// Dispatcher keeps one per pair, so its cache is the server's warm cache.
/// Immutable after Create() except through the thread-safe cache; members
/// refer to each other, so a context is never copied or moved.
struct QueryContext {
  /// Builds the context and computes the initial plan once: in white-box
  /// mode through the cache (which also warms it at the box center every
  /// multiplicative band shares); in narrow mode, where the oracle hides
  /// usage vectors, from NarrowOptimizer::Explain on the oracle's own
  /// prepared plan space (the DBA can always EXPLAIN the current plan)
  /// plus one warm-up probe of the cache.
  /// `store` (not owned, may be null) seeds the cache from the pair's
  /// scope; stack.PublishToStore() writes it back.
  [[nodiscard]] static Result<std::unique_ptr<QueryContext>> Create(
      const catalog::Catalog& catalog, query::Query query,
      storage::LayoutPolicy policy, bool white_box,
      const runtime::OracleCacheOptions& cache, runtime::CacheStore* store);

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  query::Query query;
  storage::StorageLayout layout;
  storage::ResourceSpace space;
  opt::Optimizer optimizer;
  /// Its calls() are the optimizer invocations so far (cache hits never
  /// reach it).
  blackbox::NarrowOptimizer narrow;
  runtime::OracleStack stack;
  core::CostVector baseline;
  /// The paper's "initial query plan": optimal at the baseline costs.
  std::string initial_plan_id;
  core::UsageVector initial_usage;

 private:
  QueryContext(const catalog::Catalog& catalog, query::Query q,
               storage::LayoutPolicy policy, bool white_box,
               const runtime::OracleCacheOptions& cache,
               runtime::CacheStore* store);
};

/// Opens the oracle-cache snapshot at `path` for `catalog` (loading it;
/// a corrupt or mismatched file is a typed cold start), or null when
/// `path` is empty. Entries are bucketed by QueryContext scope.
std::unique_ptr<runtime::CacheStore> OpenCacheStore(
    const catalog::Catalog& catalog, const std::string& path,
    const runtime::OracleCacheOptions& cache);

/// One point of a worst-case curve (paper Figures 5-7): at error level
/// `delta`, the initial plan can be `gtc` times costlier than optimal.
struct GtcPoint {
  double delta = 1.0;
  double gtc = 1.0;
  std::string worst_rival;
};

/// The paper's Section 6.1 / 8 worst-case GTC_rel of `initial` over the
/// candidate plans in `box`, by the exact linear-fractional program,
/// labelled `delta`. Per-rival LPs fan out over `pool`.
[[nodiscard]] Result<GtcPoint> WorstCasePoint(
    const core::UsageVector& initial, const std::vector<core::PlanUsage>& plans,
    const core::Box& box, double delta, runtime::ThreadPool* pool);

/// The worst-case curve: WorstCasePoint over the multiplicative band
/// around `baseline` at each of `deltas` in turn, each point handed to
/// `emit` as soon as it is computed. Stops at the first error.
[[nodiscard]] Status WorstCaseCurve(
    const core::UsageVector& initial, const std::vector<core::PlanUsage>& plans,
    const core::CostVector& baseline, std::span<const double> deltas,
    runtime::ThreadPool* pool,
    const std::function<Status(const GtcPoint&)>& emit);

}  // namespace costsense::exp

#endif  // COSTSENSE_EXP_QUERY_CONTEXT_H_
