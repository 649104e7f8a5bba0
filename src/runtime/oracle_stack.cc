#include "runtime/oracle_stack.h"

namespace costsense::runtime {

void OracleStack::PublishToStore() {
  if (store_ == nullptr || scope_.empty()) return;
  store_->Publish(scope_, cache_->Export());
}

OracleStackBuilder& OracleStackBuilder::WithCache(
    const OracleCacheOptions& options) {
  cache_ = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::WithStore(CacheStore* store) {
  store_ = store;
  return *this;
}

OracleStack OracleStackBuilder::Build(core::PlanOracle& base) const {
  return Build(base, std::string_view());
}

OracleStack OracleStackBuilder::Build(core::PlanOracle& base,
                                      std::string_view scope) const {
  OracleStack stack;
  stack.cache_ = std::make_unique<CachingOracle>(base, cache_);
  if (store_ != nullptr && !scope.empty()) {
    stack.store_ = store_;
    stack.scope_ = std::string(scope);
    // The warm start. Imported entries were computed at their keys'
    // canonical points, so a warm sweep returns bit-identical results —
    // it just skips the optimizer invocations.
    (void)stack.cache_->Import(store_->EntriesFor(scope));
  }
  return stack;
}

ProbeTelemetry ProbeTier::telemetry() const {
  ProbeTelemetry t;
  if (injector_ != nullptr) t.faults = injector_->log();
  if (resilient_ != nullptr) t.resilience = resilient_->stats();
  return t;
}

ProbeTier BuildProbeTier(
    CachingOracle& cache,
    const std::optional<resilience::ResilientOracleOptions>& retry,
    const resilience::FaultInjectionOptions& faults,
    resilience::Clock* clock) {
  ProbeTier tier;
  core::FalliblePlanOracle* below = nullptr;
  if (retry.has_value() &&
      (faults.fault_rate > 0.0 || faults.perturb_rate > 0.0)) {
    tier.injector_ = std::make_unique<resilience::FaultInjectingOracle>(
        cache, faults, clock);
    below = tier.injector_.get();
  } else {
    tier.adapter_ = std::make_unique<core::InfallibleOracleAdapter>(cache);
    below = tier.adapter_.get();
  }
  if (retry.has_value()) {
    tier.resilient_ =
        std::make_unique<resilience::ResilientOracle>(*below, *retry, clock);
  }
  tier.top_ = retry.has_value() ? tier.resilient_.get() : below;
  return tier;
}

}  // namespace costsense::runtime
