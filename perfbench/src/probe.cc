#include "src/probe.h"

#include <algorithm>

#include "common/strings.h"
#include "src/harness.h"
#include "tpch/schema.h"

namespace perfbench {
namespace {

// Set by BelowCacheTimer on the probing thread: CachingOracle computes a
// miss on the caller's thread, so a probe that comes back with this still
// false was answered by the cache.
thread_local bool reached_optimizer = false;

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, q).value;
}

}  // namespace

void LayerProbe::AddOptCall(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  opt_us_.push_back(static_cast<double>(ns) / 1e3);
}

void LayerProbe::AddDiscovery(int64_t span_ns, int64_t self_ns,
                              const costsense::core::DiscoveryResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.discover_calls;
  totals_.discover_ms += static_cast<double>(span_ns) / 1e6;
  totals_.discover_self_ms += static_cast<double>(self_ns) / 1e6;
  totals_.plans += result.plans.size();
  if (result.complete) ++totals_.complete;
  for (const costsense::core::DiscoveredPlan& p : result.plans) {
    if (!p.usage_from_least_squares) continue;
    ++totals_.ls_plans;
    totals_.ls_err_max = std::max(totals_.ls_err_max, p.extraction_error);
  }
}

void LayerProbe::AddLp(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  lp_us_.push_back(static_cast<double>(ns) / 1e3);
}

void LayerProbe::AddAbove(size_t probes, size_t hits,
                          const LogHistogram& hit_us) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.probes += probes;
  totals_.timed_hits += hits;
  hit_us_.Merge(hit_us);
}

void LayerProbe::AddCacheStats(
    const costsense::runtime::OracleCacheStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.cache_hits += stats.hits;
  totals_.cache_misses += stats.misses;
  totals_.cache_entries += stats.entries;
}

LayerProbe::Totals LayerProbe::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t = totals_;
  t.opt_calls = opt_us_.size();
  for (double us : opt_us_) t.opt_busy_ms += us / 1e3;
  t.opt_call_us_p50 = Quantile(opt_us_, 0.5);
  t.opt_call_us_p99 = Quantile(opt_us_, 0.99);
  t.cache_hit_us_p50 = hit_us_.Quantile(0.5);
  t.lp_calls = lp_us_.size();
  for (double us : lp_us_) t.lp_busy_ms += us / 1e3;
  t.lp_call_us_p99 = Quantile(lp_us_, 0.99);
  return t;
}

void SetLayerMetrics(const LayerProbe::Totals& t,
                     const costsense::runtime::PoolStats& pool,
                     double catalog_ms, RunResult& result) {
  if (t.cache_hits + t.cache_misses != t.probes) {
    result.Fail(costsense::StrFormat(
        "cache hits %zu + misses %zu != core.probes %zu", t.cache_hits,
        t.cache_misses, t.probes));
  }
  if (t.opt_calls != t.cache_misses) {
    result.Fail(costsense::StrFormat("opt.calls %zu != cache misses %zu",
                                     t.opt_calls, t.cache_misses));
  }
  auto share = [](size_t part, size_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  result.metrics.clear();
  result.Set("tpch.catalog_ms", catalog_ms);
  result.Set("opt.calls", static_cast<double>(t.opt_calls));
  result.Set("opt.busy_ms", t.opt_busy_ms);
  result.Set("opt.call_us_p50", t.opt_call_us_p50);
  result.Set("opt.call_us_p99", t.opt_call_us_p99);
  result.Set("runtime.cache_hits", static_cast<double>(t.cache_hits));
  result.Set("runtime.cache_misses", static_cast<double>(t.cache_misses));
  result.Set("runtime.cache_entries", static_cast<double>(t.cache_entries));
  result.Set("runtime.cache_hit_rate", share(t.cache_hits, t.probes));
  result.Set("runtime.cache_hit_us_p50", t.cache_hit_us_p50);
  result.Set("runtime.pool_tasks", static_cast<double>(pool.tasks_run));
  result.Set("runtime.pool_queue_high_water",
             static_cast<double>(pool.queue_high_water));
  result.Set("core.discover_calls", static_cast<double>(t.discover_calls));
  result.Set("core.discover_ms", t.discover_ms);
  result.Set("core.discover_self_ms", t.discover_self_ms);
  result.Set("core.probes", static_cast<double>(t.probes));
  result.Set("core.plans", static_cast<double>(t.plans));
  result.Set("core.complete_share", share(t.complete, t.discover_calls));
  result.Set("core.ls_plans", static_cast<double>(t.ls_plans));
  result.Set("core.ls_err_max", t.ls_err_max);
  result.Set("lp.calls", static_cast<double>(t.lp_calls));
  result.Set("lp.busy_ms", t.lp_busy_ms);
  result.Set("lp.call_us_p99", t.lp_call_us_p99);
}

double CatalogMs() {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t begin = NowNs();
    const costsense::catalog::Catalog catalog =
        costsense::tpch::MakeTpchCatalog(100.0);
    ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
  }
  return Median(ms);
}

costsense::core::OracleResult BelowCacheTimer::Optimize(
    const costsense::core::CostVector& c) {
  const int64_t begin = NowNs();
  costsense::core::OracleResult r = base_.Optimize(c);
  probe_.AddOptCall(NowNs() - begin);
  reached_optimizer = true;
  return r;
}

AboveCacheTimer::~AboveCacheTimer() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_.AddAbove(spans_.size(), hits_, hit_us_);
}

costsense::core::OracleResult AboveCacheTimer::Optimize(
    const costsense::core::CostVector& c) {
  reached_optimizer = false;
  const int64_t begin = NowNs();
  costsense::core::OracleResult r = cache_.Optimize(c);
  const int64_t end = NowNs();
  const bool hit = !reached_optimizer;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({begin, end});
  if (hit) {
    ++hits_;
    hit_us_.Add(static_cast<double>(end - begin) / 1e3);
  }
  return r;
}

std::vector<Interval> AboveCacheTimer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

costsense::Result<costsense::core::DiscoveryResult> TracedDiscover(
    AboveCacheTimer& above, const costsense::core::Box& box,
    costsense::Rng& rng, const costsense::core::DiscoveryOptions& options,
    LayerProbe& probe) {
  const int64_t begin = NowNs();
  costsense::Result<costsense::core::DiscoveryResult> d =
      costsense::core::DiscoverCandidatePlans(above, box, rng, options);
  const int64_t end = NowNs();
  if (d.ok()) {
    probe.AddDiscovery(end - begin, SelfTime({begin, end}, above.spans()), *d);
  }
  return d;
}

costsense::Result<costsense::core::WorstCaseResult> TracedLp(
    const costsense::core::UsageVector& initial_usage,
    const std::vector<costsense::core::PlanUsage>& plans,
    const costsense::core::Box& box, costsense::runtime::ThreadPool* pool,
    LayerProbe& probe) {
  const int64_t begin = NowNs();
  costsense::Result<costsense::core::WorstCaseResult> wc =
      costsense::core::WorstCaseOverPlansByLp(initial_usage, plans, box, pool);
  probe.AddLp(NowNs() - begin);
  return wc;
}

}  // namespace perfbench
