#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/discovery.h"
#include "core/oracle.h"
#include "core/worst_case.h"
#include "runtime/oracle_cache.h"
#include "runtime/thread_pool.h"
#include "src/stats.h"

namespace perfbench {

/// Per-layer totals of one traced run, filled from the benchmark's own
/// decorators and spans around calls into the library's entry points.
/// Thread-safe.
class LayerProbe {
 public:
  /// One NarrowOptimizer::Optimize call below the cache (a cache miss).
  void AddOptCall(int64_t ns);
  /// One finished discovery: its span, its self time, and what it found.
  void AddDiscovery(int64_t span_ns, int64_t self_ns,
                    const costsense::core::DiscoveryResult& result);
  /// One WorstCaseOverPlansByLp call.
  void AddLp(int64_t ns);
  /// Calls into one cache, timed from above it.
  void AddAbove(size_t probes, size_t hits, const LogHistogram& hit_us);
  /// A cache's own counters (OracleCacheStats), read after its last probe.
  void AddCacheStats(const costsense::runtime::OracleCacheStats& stats);

  struct Totals {
    size_t opt_calls = 0;
    double opt_busy_ms = 0.0;
    double opt_call_us_p50 = 0.0;
    double opt_call_us_p99 = 0.0;
    /// From OracleCacheStats.
    size_t cache_hits = 0;
    size_t cache_misses = 0;
    size_t cache_entries = 0;
    /// From the decorator above the cache.
    size_t probes = 0;
    size_t timed_hits = 0;
    double cache_hit_us_p50 = 0.0;
    size_t discover_calls = 0;
    double discover_ms = 0.0;
    double discover_self_ms = 0.0;
    size_t plans = 0;
    size_t complete = 0;
    size_t ls_plans = 0;
    double ls_err_max = 0.0;
    size_t lp_calls = 0;
    double lp_busy_ms = 0.0;
    double lp_call_us_p99 = 0.0;
  };
  Totals totals() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> opt_us_;
  std::vector<double> lp_us_;
  LogHistogram hit_us_;
  Totals totals_;
};

struct RunResult;

/// Replaces the run's end-to-end metrics with the per-layer metrics every
/// workload shares (tpch, opt, runtime, core, lp), and fails the run
/// unless every probe was a hit or a miss and every miss reached the
/// optimizer.
void SetLayerMetrics(const LayerProbe::Totals& t,
                     const costsense::runtime::PoolStats& pool,
                     double catalog_ms, RunResult& result);

/// Median wall time of a few MakeTpchCatalog(100) calls, in ms.
double CatalogMs();

/// The stack's base, between CachingOracle and NarrowOptimizer: times
/// every call that reached the optimizer.
class BelowCacheTimer final : public costsense::core::PlanOracle {
 public:
  BelowCacheTimer(costsense::core::PlanOracle& base, LayerProbe& probe)
      : base_(base), probe_(probe) {}

  costsense::core::OracleResult Optimize(
      const costsense::core::CostVector& c) override;
  size_t dims() const override { return base_.dims(); }

 private:
  costsense::core::PlanOracle& base_;
  LayerProbe& probe_;
};

/// The decorator above the cache: records one span per probe (the child
/// spans of a discovery) and times the probes the cache answered itself.
/// Merges its totals into the probe when destroyed.
class AboveCacheTimer final : public costsense::core::PlanOracle {
 public:
  AboveCacheTimer(costsense::core::PlanOracle& cache, LayerProbe& probe)
      : cache_(cache), probe_(probe) {}
  ~AboveCacheTimer() override;

  costsense::core::OracleResult Optimize(
      const costsense::core::CostVector& c) override;
  size_t dims() const override { return cache_.dims(); }

  std::vector<Interval> spans() const;

 private:
  costsense::core::PlanOracle& cache_;
  LayerProbe& probe_;
  mutable std::mutex mu_;
  std::vector<Interval> spans_;
  size_t hits_ = 0;
  LogHistogram hit_us_;
};

/// DiscoverCandidatePlans through `above`, recording the discovery span
/// and its self time (span minus the union of its probe spans).
[[nodiscard]] costsense::Result<costsense::core::DiscoveryResult>
TracedDiscover(AboveCacheTimer& above, const costsense::core::Box& box,
               costsense::Rng& rng,
               const costsense::core::DiscoveryOptions& options,
               LayerProbe& probe);

/// WorstCaseOverPlansByLp, timed into `probe`.
[[nodiscard]] costsense::Result<costsense::core::WorstCaseResult> TracedLp(
    const costsense::core::UsageVector& initial_usage,
    const std::vector<costsense::core::PlanUsage>& plans,
    const costsense::core::Box& box, costsense::runtime::ThreadPool* pool,
    LayerProbe& probe);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
