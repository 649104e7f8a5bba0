#include "runtime/oracle_stack.h"

namespace costsense::runtime {

StackTelemetry OracleStack::telemetry() const {
  StackTelemetry t;
  t.cache = cache_->stats();
  if (injector_ != nullptr) t.faults = injector_->log();
  if (resilient_ != nullptr) t.resilience = resilient_->stats();
  return t;
}

void OracleStack::PublishToStore() {
  if (store_ == nullptr || scope_.empty()) return;
  store_->Publish(scope_, cache_->Export());
}

OracleStackBuilder& OracleStackBuilder::WithCache(
    const OracleCacheOptions& options) {
  cache_ = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::WithResilience(
    const resilience::FaultInjectionOptions& faults,
    const resilience::ResilientOracleOptions& retry,
    resilience::Clock* clock) {
  resilience_ = true;
  faults_ = faults;
  retry_ = retry;
  clock_ = clock;
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
  if (resilience_) {
    stack.injector_ = std::make_unique<resilience::FaultInjectingOracle>(
        *stack.cache_, faults_, clock_);
    stack.resilient_ = std::make_unique<resilience::ResilientOracle>(
        *stack.injector_, retry_, clock_);
    stack.top_ = stack.resilient_.get();
  } else {
    stack.adapter_ = std::make_unique<core::InfallibleOracleAdapter>(
        *stack.cache_);
    stack.top_ = stack.adapter_.get();
  }
  return stack;
}

}  // namespace costsense::runtime
