#ifndef COSTSENSE_RUNTIME_ORACLE_STACK_H_
#define COSTSENSE_RUNTIME_ORACLE_STACK_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/oracle.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"

namespace costsense::runtime {

/// One snapshot of every decorator's counters — the metrics-recorder tier
/// of the stack. Fields for tiers that were not built stay zero.
struct StackTelemetry {
  OracleCacheStats cache;
  resilience::FaultLog faults;
  resilience::ResilienceStats resilience;
};

/// An assembled PlanOracle decorator chain over a base optimizer oracle.
/// Every stack has one fallible top, oracle(), that drivers probe:
///
///   default:          drivers -> InfallibleOracleAdapter -> CachingOracle
///                             -> base (e.g. blackbox::NarrowOptimizer)
///   WithResilience:   drivers -> ResilientOracle -> FaultInjectingOracle
///                             -> CachingOracle -> base
///
/// The default top is a lock-free pass-through, so fault-free drivers pay
/// nothing for speaking the fallible interface. Faults are injected
/// *above* the cache: a retried probe re-enters the injector (consuming
/// its burst) and then lands on the warm cache, so retries cost no
/// optimizer invocations and the cache only ever holds clean replies.
/// This order is what makes figure output byte-identical under absorbed
/// faults, and OracleStack is the one place it is encoded.
///
/// The base oracle is not owned and must outlive the stack. Every layer
/// also remains individually constructible (CachingOracle,
/// FaultInjectingOracle, ResilientOracle) for targeted tests.
class OracleStack {
 public:
  OracleStack(OracleStack&&) = default;
  OracleStack& operator=(OracleStack&&) = default;

  /// The memoizing tier; always present. Infallible callers, and fault
  /// injectors stacked per request above a shared cache (as the serve
  /// Dispatcher does), probe this directly.
  CachingOracle& cache() { return *cache_; }
  const CachingOracle& cache() const { return *cache_; }

  /// Top of the chain; always present. Without the resilience tier it
  /// forwards to the cache and never fails.
  core::FalliblePlanOracle& oracle() { return *top_; }

  /// The fault tier, or nullptr without resilience (tests reach in to
  /// read the fault log).
  resilience::FaultInjectingOracle* injector() { return injector_.get(); }

  /// Snapshot of all per-tier counters.
  StackTelemetry telemetry() const;

  /// Publishes the cache's current contents back to the persistence scope
  /// this stack was built with (no-op for stacks built without a store).
  /// The store batches scopes in memory; CacheStore::Save() writes disk.
  void PublishToStore();

 private:
  friend class OracleStackBuilder;
  OracleStack() = default;

  std::unique_ptr<CachingOracle> cache_;
  std::unique_ptr<resilience::FaultInjectingOracle> injector_;
  std::unique_ptr<resilience::ResilientOracle> resilient_;
  std::unique_ptr<core::InfallibleOracleAdapter> adapter_;
  core::FalliblePlanOracle* top_ = nullptr;  // resilient_ or adapter_
  CacheStore* store_ = nullptr;  // not owned
  std::string scope_;
};

/// Assembles OracleStacks from explicit options. One builder can stamp out
/// many per-query stacks (Build is const).
class OracleStackBuilder {
 public:
  OracleStackBuilder() = default;

  /// Sizing for the memoizing tier (always built).
  OracleStackBuilder& WithCache(const OracleCacheOptions& options);

  /// Enables the fault-injection + retry tiers. `clock` drives latency
  /// faults, backoff and deadlines; null = real steady clock.
  OracleStackBuilder& WithResilience(
      const resilience::FaultInjectionOptions& faults,
      const resilience::ResilientOracleOptions& retry,
      resilience::Clock* clock = nullptr);

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
  bool resilience_ = false;
  resilience::FaultInjectionOptions faults_;
  resilience::ResilientOracleOptions retry_;
  resilience::Clock* clock_ = nullptr;
  CacheStore* store_ = nullptr;  // not owned
};

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_ORACLE_STACK_H_
