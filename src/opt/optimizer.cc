#include "opt/optimizer.h"

#include "opt/join_enum.h"

namespace costsense::opt {

Optimizer::Optimizer(const catalog::Catalog& catalog,
                     const storage::StorageLayout& layout,
                     const storage::ResourceSpace& space,
                     OptimizerOptions options)
    : catalog_(catalog), layout_(layout), space_(space), options_(options) {
  // DB2 only considers bushy shapes at higher optimization levels; mirror
  // that coupling unless the caller overrode it explicitly.
  if (catalog_.config().optimization_level < 5) {
    options_.bushy_joins = false;
  }
}

Result<std::unique_ptr<const PreparedSpace>> Optimizer::Prepare(
    const query::Query& query) const {
  return PreparedSpace::Prepare(catalog_, layout_, space_, query, options_);
}

Result<Optimized> Optimizer::Optimize(const PreparedSpace& prepared,
                                      const core::CostVector& costs) const {
  if (costs.size() != space_.dims()) {
    return Status::InvalidArgument(
        "cost vector dimension does not match the resource space");
  }
  JoinEnumerator enumerator(prepared);
  Result<PlanNodePtr> best = enumerator.BestPlan(costs);
  if (!best.ok()) return best.status();
  Optimized out;
  out.plan = std::move(best).value();
  out.total_cost = core::TotalCost(out.plan->usage, costs);
  return out;
}

Result<Optimized> Optimizer::Optimize(const query::Query& query,
                                      const core::CostVector& costs) const {
  Result<std::unique_ptr<const PreparedSpace>> prepared = Prepare(query);
  if (!prepared.ok()) return prepared.status();
  return Optimize(**prepared, costs);
}

Result<Optimized> Optimizer::OptimizeAtBaseline(
    const query::Query& query) const {
  return Optimize(query, space_.BaselineCosts());
}

}  // namespace costsense::opt
