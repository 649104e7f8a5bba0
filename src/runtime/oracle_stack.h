#ifndef COSTSENSE_RUNTIME_ORACLE_STACK_H_
#define COSTSENSE_RUNTIME_ORACLE_STACK_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/oracle.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"

namespace costsense::runtime {

/// The long-lived half of a PlanOracle decorator chain: the memoizing
/// CachingOracle over a base optimizer oracle, bound to the persistence
/// scope it imports from and publishes back to. One stack lives as long
/// as its (query, layout) context; every run or request probes it through
/// a ProbeTier stacked on top (BuildProbeTier below).
///
/// The base oracle is not owned and must outlive the stack.
class OracleStack {
 public:
  /// The memoizing tier. Infallible callers probe this directly; probe
  /// tiers stack above it.
  CachingOracle& cache() { return *cache_; }
  const CachingOracle& cache() const { return *cache_; }

  /// Publishes the cache's current contents back to the persistence scope
  /// this stack was built with (no-op for stacks built without a store).
  /// The store batches scopes in memory; CacheStore::Save() writes disk.
  void PublishToStore();

 private:
  friend class OracleStackBuilder;
  OracleStack() = default;

  std::unique_ptr<CachingOracle> cache_;
  CacheStore* store_ = nullptr;  // not owned
  std::string scope_;
};

/// Assembles OracleStacks from explicit options. One builder can stamp out
/// many per-query stacks (Build is const).
class OracleStackBuilder {
 public:
  /// Sizing for the memoizing tier.
  OracleStackBuilder& WithCache(const OracleCacheOptions& options);

  /// Attaches a snapshot store (not owned; may be null to detach).
  /// Stacks built with a non-empty scope import the store's entries for
  /// that scope at Build time (the warm start) and can publish back via
  /// OracleStack::PublishToStore().
  OracleStackBuilder& WithStore(CacheStore* store);

  OracleStack Build(core::PlanOracle& base) const;

  /// Builds a stack bound to persistence scope `scope` (e.g. "Q6/shared").
  /// Identical to Build(base) when no store is attached.
  OracleStack Build(core::PlanOracle& base, std::string_view scope) const;

 private:
  OracleCacheOptions cache_;
  CacheStore* store_ = nullptr;  // not owned
};

/// A probe tier's counters; fields of decorators not built stay zero.
struct ProbeTelemetry {
  resilience::FaultLog faults;
  resilience::ResilienceStats resilience;
};

/// The per-run top of the decorator chain over a shared cache — what one
/// figure analysis or one serve request probes:
///
///   retry tier:     drivers -> ResilientOracle -> FaultInjectingOracle
///                           (InfallibleOracleAdapter when nothing
///                           injects) -> CachingOracle -> base
///   no retry tier:  drivers -> InfallibleOracleAdapter -> CachingOracle
///
/// The adapter is a lock-free pass-through, so fault-free drivers pay
/// nothing for speaking the fallible interface. Faults are injected
/// *above* the cache: a retried probe re-enters the injector (consuming
/// its burst) and then lands on the warm cache, so retries cost no
/// optimizer invocations and the cache only ever holds clean replies.
/// That order is what keeps figure output byte-identical under absorbed
/// faults, and BuildProbeTier is the one place it is encoded.
class ProbeTier {
 public:
  /// Top of the tier; never fails without a retry tier.
  core::FalliblePlanOracle& oracle() { return *top_; }
  /// The fault tier, or nullptr when none was built.
  resilience::FaultInjectingOracle* injector() { return injector_.get(); }
  ProbeTelemetry telemetry() const;

 private:
  friend ProbeTier BuildProbeTier(
      CachingOracle& cache,
      const std::optional<resilience::ResilientOracleOptions>& retry,
      const resilience::FaultInjectionOptions& faults,
      resilience::Clock* clock);
  ProbeTier() = default;

  std::unique_ptr<resilience::FaultInjectingOracle> injector_;
  std::unique_ptr<core::InfallibleOracleAdapter> adapter_;
  std::unique_ptr<resilience::ResilientOracle> resilient_;
  core::FalliblePlanOracle* top_ = nullptr;  // resilient_ or adapter_
};

/// Builds the per-run probe tier over `cache` (not owned; must outlive the
/// tier). With `retry` set the top is a ResilientOracle, over a
/// FaultInjectingOracle exactly when `faults` injects (fault_rate > 0 or
/// perturb_rate > 0); without it the top is the adapter and `faults` is
/// ignored. `clock` drives latency faults, backoff and deadlines; null =
/// real steady clock.
ProbeTier BuildProbeTier(
    CachingOracle& cache,
    const std::optional<resilience::ResilientOracleOptions>& retry,
    const resilience::FaultInjectionOptions& faults = {},
    resilience::Clock* clock = nullptr);

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_ORACLE_STACK_H_
