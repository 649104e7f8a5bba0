#include "blackbox/narrow_optimizer.h"

#include "common/macros.h"

namespace costsense::blackbox {

NarrowOptimizer::NarrowOptimizer(const opt::Optimizer& optimizer,
                                 const query::Query& query, bool white_box)
    : optimizer_(optimizer),
      prepared_(optimizer.Prepare(query)),
      white_box_(white_box) {}

Result<opt::Optimized> NarrowOptimizer::Explain(
    const core::CostVector& c) const {
  if (!prepared_.ok()) return prepared_.status();
  return optimizer_.Optimize(**prepared_, c);
}

core::OracleResult NarrowOptimizer::Optimize(const core::CostVector& c) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  const Result<opt::Optimized> r = Explain(c);
  COSTSENSE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  core::OracleResult out;
  out.plan_id = r->plan->id;
  out.total_cost = r->total_cost;
  if (white_box_) out.usage = r->plan->usage;
  return out;
}

size_t NarrowOptimizer::dims() const { return optimizer_.space().dims(); }

}  // namespace costsense::blackbox
