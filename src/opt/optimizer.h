#ifndef COSTSENSE_OPT_OPTIMIZER_H_
#define COSTSENSE_OPT_OPTIMIZER_H_

#include <memory>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/vectors.h"
#include "opt/access_paths.h"
#include "opt/plan.h"
#include "opt/prepared_space.h"
#include "query/query.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace costsense::opt {

/// What one optimization call produces: the estimated optimal plan and its
/// estimated total cost — the same information a commercial optimizer
/// reports (paper Section 7.1) plus, because this optimizer is ours, the
/// plan's full resource usage vector inside the plan tree.
struct Optimized {
  PlanNodePtr plan;
  double total_cost = 0.0;
};

/// The cost-based query optimizer: a dynamic-programming enumeration per
/// (query, resource cost vector) pair over the query's prepared plan space.
/// This is the stand-in for the DB2 8.1 optimizer in the paper's
/// experiments; it satisfies the three requirements of Section 7.1 —
/// linear cost model, settable resource costs, and reported plan identity
/// + estimated total cost.
class Optimizer {
 public:
  Optimizer(const catalog::Catalog& catalog,
            const storage::StorageLayout& layout,
            const storage::ResourceSpace& space, OptimizerOptions options = {});

  /// Prepares the cost-independent part of `query`'s plan space under this
  /// optimizer's layout. `query` must outlive the result, which any number
  /// of concurrent Optimize calls may share.
  [[nodiscard]] Result<std::unique_ptr<const PreparedSpace>> Prepare(
      const query::Query& query) const;

  /// Optimizes a query prepared by this optimizer under resource costs
  /// `costs` (dimension must match the resource space).
  [[nodiscard]] Result<Optimized> Optimize(
      const PreparedSpace& prepared, const core::CostVector& costs) const;

  /// Prepare, then Optimize: for callers that optimize `query` once.
  [[nodiscard]] Result<Optimized> Optimize(const query::Query& query,
                             const core::CostVector& costs) const;

  /// Optimizes under the layout's baseline (estimated) costs.
  [[nodiscard]] Result<Optimized> OptimizeAtBaseline(const query::Query& query) const;

  const storage::ResourceSpace& space() const { return space_; }
  const OptimizerOptions& options() const { return options_; }

 private:
  const catalog::Catalog& catalog_;
  const storage::StorageLayout& layout_;
  const storage::ResourceSpace& space_;
  OptimizerOptions options_;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_OPTIMIZER_H_
