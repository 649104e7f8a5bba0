#ifndef COSTSENSE_EXP_FIGURE_RUNNER_H_
#define COSTSENSE_EXP_FIGURE_RUNNER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/complementarity.h"
#include "core/discovery.h"
#include "core/vectors.h"
#include "exp/query_context.h"
#include "query/query.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"

namespace costsense::exp {

/// Everything learned about one (query, storage layout) pair: the initial
/// plan chosen at the DB2-default baseline costs and the candidate optimal
/// plan set over the widest feasible region — sufficient to evaluate the
/// worst-case curve at every delta by pure geometry afterwards.
struct QueryAnalysis {
  std::string query_name;
  storage::LayoutPolicy policy = storage::LayoutPolicy::kSharedDevice;
  size_t dims = 0;
  core::CostVector baseline;
  std::vector<core::DimInfo> dim_info;
  /// The paper's "initial query plan": optimal at the baseline costs.
  std::string initial_plan_id;
  core::UsageVector initial_usage;
  /// Candidate optimal plans discovered over the delta_max band.
  std::vector<core::PlanUsage> candidate_plans;
  /// Distinct optimizer invocations (cache misses reach the optimizer;
  /// hits do not).
  size_t oracle_calls = 0;
  bool discovery_complete = false;
  /// Memoizing-oracle effectiveness during this analysis.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Entries resident in this analysis's cache when it finished, and
  /// entries evicted to make room.
  size_t cache_entries = 0;
  size_t cache_evictions = 0;
  /// Entries seeded from a persisted snapshot before the first probe (0
  /// on a cold start or when no store is attached).
  size_t cache_imported = 0;
  /// Resilience accounting (all zero when the resilience tier is off).
  /// Oracle-side view, from ResilientOracle: probe_calls are TryOptimize
  /// invocations, attempts includes retries; failures are calls that erred
  /// after the whole retry budget.
  size_t oracle_probe_calls = 0;
  size_t oracle_attempts = 0;
  size_t oracle_retries = 0;
  size_t oracle_failures = 0;
  /// Fault events the injector actually delivered (its own log).
  size_t faults_injected = 0;
  /// Driver-side view: discovery probe points this analysis skipped
  /// because their oracle call failed. With a zero retry budget
  /// each injected fault surfaces as exactly one degraded point, so
  /// degraded_points == oracle_failures == faults_injected.
  size_t degraded_points = 0;
  /// Fraction of resilient oracle calls that produced a usable reply; 1.0
  /// marks a full-coverage (non-degraded) analysis.
  double probe_coverage = 1.0;
};

/// A full curve for one query.
struct FigureSeries {
  std::string query_name;
  std::vector<GtcPoint> points;
  /// Theorem 2's constant bound over the candidate set (infinity when
  /// complementary plans exist and only the delta^2 law applies).
  double constant_bound = 0.0;
  size_t num_candidate_plans = 0;
  bool has_complementary_plans = false;
};

/// Drives the paper's worst-case experiments (Section 6.1 / Section 8.1):
/// per query and storage layout, find the initial plan at the DB2-default
/// baseline, discover the candidate optimal plans over the widest
/// multiplicative error band, and evaluate worst-case global relative cost
/// at each delta via the exact linear-fractional program.
///
/// Analyses fan out over a runtime::ThreadPool at two granularities —
/// across queries (AnalyzeMany) and within a query (discovery probes,
/// extraction, per-rival LPs) — and every optimizer call goes through a
/// sharded memoizing runtime::CachingOracle. Results are bit-identical
/// for any thread count, including 1 (the serial path).
class FigureRunner {
 public:
  struct Options {
    /// Error levels reported on the x-axis.
    std::vector<double> deltas = {2, 5, 10, 100, 1000, 10000};
    /// Plans are discovered once over the widest band (deltas.back()).
    bool white_box = true;
    uint64_t seed = 0x5eed;
    core::DiscoveryOptions discovery;
    /// Pool for per-query and per-probe fan-out; null uses the
    /// process-global pool (sized by runtime::GlobalThreadCount(), which
    /// engine::Engine::Create configures; 1 = serial).
    runtime::ThreadPool* pool = nullptr;
    /// Memoizing oracle cache applied around each per-query optimizer.
    runtime::OracleCacheOptions cache;
    /// Optional snapshot store (not owned; null = no persistence). Each
    /// per-query QueryContext imports its scope before its first probe
    /// and publishes its cache back after a successful analysis; the
    /// owner decides when to CacheStore::Save(). Thread-safe for
    /// AnalyzeMany's fan-out. Warm analyses produce byte-identical
    /// content (imported results were computed at the same canonical
    /// points); only the hit/miss split moves.
    runtime::CacheStore* store = nullptr;
    /// Optional fault-injection + retry tier: when enabled, each analysis
    /// probes through runtime::BuildProbeTier's retry tier (see
    /// runtime/oracle_stack.h). Probes it cannot answer are skipped and
    /// accounted in the QueryAnalysis counters instead of failing.
    /// With fault_rate 0, or any fault rate whose bursts the retry budget
    /// absorbs (max_retries > max_burst), analysis content is
    /// byte-identical to the tier being off.
    struct Resilience {
      bool enabled = false;
      runtime::resilience::FaultInjectionOptions faults;
      runtime::resilience::ResilientOracleOptions retry;
      /// Clock for latency faults, backoff and deadlines; null = real
      /// steady clock (tests inject a ManualClock).
      runtime::resilience::Clock* clock = nullptr;
    };
    Resilience resilience;
  };

  FigureRunner(const catalog::Catalog& catalog, Options options);

  /// Discovers plans and the initial plan for one query under `policy`.
  [[nodiscard]] Result<QueryAnalysis> Analyze(const query::Query& query,
                                storage::LayoutPolicy policy) const;

  /// Analyzes every query concurrently (one task per query, each of which
  /// fans out further). Results arrive in input order; a failed analysis
  /// occupies its slot as an error Result so callers can report and skip.
  std::vector<Result<QueryAnalysis>> AnalyzeMany(
      const std::vector<query::Query>& queries,
      storage::LayoutPolicy policy) const;

  /// Evaluates the worst-case curve from an analysis (pure geometry; no
  /// further optimizer calls) through exp::WorstCaseCurve, the loop the
  /// serve gtcseries request runs too. Per-rival fractional programs fan
  /// out over the pool.
  [[nodiscard]] Result<FigureSeries> GtcSeries(const QueryAnalysis& analysis) const;

  /// Section 8.2's census of the candidate plan set.
  core::ComplementarityReport Complementarity(
      const QueryAnalysis& analysis) const;

  const Options& options() const { return options_; }

 private:
  runtime::ThreadPool& pool() const;

  const catalog::Catalog& catalog_;
  Options options_;
};

}  // namespace costsense::exp

#endif  // COSTSENSE_EXP_FIGURE_RUNNER_H_
