#ifndef COSTSENSE_OPT_COST_MODEL_H_
#define COSTSENSE_OPT_COST_MODEL_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "opt/plan.h"
#include "query/query.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace costsense::opt {

/// Produces fully-annotated physical plan nodes, charging every operator's
/// I/O to the right storage device and its CPU work to the CPU resource.
/// This is where the paper's additive cost model (Section 3.1) is
/// realized: each operator accumulates a resource usage vector; total
/// cost is later priced as U . C for any cost vector C. Join and sort
/// usage is computed by charge functions, so the enumerator can price a
/// candidate before (and mostly instead of) building its node.
///
/// Cardinalities of join results are supplied by the enumerator (they are
/// a function of the covered table set only, mirroring the paper's
/// assumption that selectivity estimates are accurate and shared by all
/// plans, Section 3.3).
class CostModel {
 public:
  CostModel(const catalog::Catalog& catalog,
            const storage::StorageLayout& layout,
            const storage::ResourceSpace& space, const query::Query& query);

  /// Shared cardinality/width properties of a join result, computed by the
  /// enumerator once per table subset.
  struct JoinProps {
    double output_rows = 0.0;
    double output_width_bytes = 0.0;
    /// The join edge the physical method keys on.
    int edge = -1;
    /// Number of additional connecting edges applied as residual filters
    /// (extra CPU per examined pair).
    int residual_edges = 0;
  };

  /// What a charge function reads of one input: its cumulative usage and
  /// its size estimates. A built node converts implicitly; the enumerator
  /// also prices inputs that exist only in its scratch space (a sort it
  /// has not built, see SortedInput).
  struct Input {
    Input(const PlanNode& node)
        : usage(node.usage),
          rows(node.output_rows),
          pages(node.output_pages),
          base_access(node.op == OpType::kSeqScan ||
                      node.op == OpType::kIndexScan) {}
    Input(const core::UsageVector& u, double r, double p)
        : usage(u), rows(r), pages(p) {}

    const core::UsageVector& usage;
    double rows = 0.0;
    double pages = 0.0;
    /// A base access path, which a nested-loops join can rescan.
    bool base_access = false;
  };

  /// What a price function reads of one input: its total cost under the
  /// call's cost vector and its size estimates.
  struct Priced {
    Priced(const PlanNode& node, double total_cost);

    double cost = 0.0;
    double rows = 0.0;
    double pages = 0.0;
    bool base_access = false;
  };

  /// The cost under one cost vector C of one unit of everything an
  /// operator charges: a seek and a page transfer on each device, and a
  /// CPU instruction. Each is one unit charged into a zero usage vector
  /// and priced at C, so it covers either granularity with no special
  /// case.
  struct UnitPrices {
    std::vector<double> seek;
    std::vector<double> page;
    double cpu = 0.0;
  };

  /// The unit prices under `costs` (one entry per device).
  UnitPrices Prices(const core::CostVector& costs) const;

  /// Full sequential scan of `ref`, applying its local predicates.
  PlanNodePtr SeqScan(size_t ref) const;

  /// B-tree access to `ref` through `index_id`; uses the reference's
  /// sargable restriction on the index's leading column if present (else a
  /// full index sweep, useful for its order or to avoid the table).
  /// `index_only` skips the data-page fetch (only legal if the index
  /// covers the columns the query uses — see IndexCoversRef).
  PlanNodePtr IndexScan(size_t ref, int index_id, bool index_only) const;

  // Charge functions. Each writes one operator's cumulative usage (its
  // inputs' usage plus its own I/O and CPU) into the caller-owned `usage`,
  // reusing its storage. The node constructors below call them, so a
  // candidate charged in scratch space and the node later built for it
  // carry bitwise-identical usage. `usage` must not alias an input's
  // usage. Each operator's formula is written once, over an accumulator;
  // the charge function runs it into a usage vector and the matching
  // price function (below) into a scalar.

  /// Hybrid hash join building on `right`; spills both sides to the temp
  /// device when the build side exceeds memory.
  void ChargeHashJoin(const Input& left, const Input& right,
                      const JoinProps& props, core::UsageVector& usage) const;

  /// Sort-merge join of inputs already in the edge's key order.
  void ChargeSortMergeJoin(const Input& left, const Input& right,
                           const JoinProps& props,
                           core::UsageVector& usage) const;

  /// Index nested-loops join: for each outer (left) row, probe `index_id`
  /// on base reference `right_ref` and fetch matches (no fetch when
  /// `index_only`).
  void ChargeIndexNLJoin(const Input& left, size_t right_ref, int index_id,
                         bool index_only, const JoinProps& props,
                         core::UsageVector& usage) const;

  /// Block nested-loops join: rescans a base-access inner per outer block,
  /// or materializes any other inner to the temp device and rescans that.
  void ChargeBlockNLJoin(const Input& left, const Input& right,
                         const JoinProps& props,
                         core::UsageVector& usage) const;

  /// Sorting `child` (whatever its order): in memory, or an external sort
  /// charging the temp device.
  void ChargeSort(const Input& child, core::UsageVector& usage) const;

  /// The input Sort(child, keys) presents, without building it: `child`
  /// itself when its order already satisfies `keys`, else the sorted
  /// stream charged into `scratch`.
  Input SortedInput(const PlanNode& child,
                    const std::vector<query::SortKey>& keys,
                    core::UsageVector& scratch) const;

  // Price functions. Each returns what the matching charge function adds
  // to its inputs' usage (the operator's own I/O and CPU, and a block
  // nested-loops join's rescans of its inner), priced under `prices`. An
  // input's cost plus the operator's own price is the candidate's total
  // cost up to rounding, with no usage vector built.

  /// ChargeHashJoin's own work, priced.
  double PriceHashJoinOwn(const Priced& left, const Priced& right,
                          const JoinProps& props,
                          const UnitPrices& prices) const;
  /// ChargeSortMergeJoin's own work, priced.
  double PriceSortMergeJoinOwn(const Priced& left, const Priced& right,
                               const JoinProps& props,
                               const UnitPrices& prices) const;
  /// ChargeIndexNLJoin's own work, priced.
  double PriceIndexNLJoinOwn(const Priced& left, size_t right_ref,
                             int index_id, bool index_only,
                             const JoinProps& props,
                             const UnitPrices& prices) const;
  /// ChargeBlockNLJoin's own work and the inner's rescans, priced.
  double PriceBlockNLJoinOwn(const Priced& left, const Priced& right,
                             const JoinProps& props,
                             const UnitPrices& prices) const;
  /// ChargeSort's own work, priced.
  double PriceSortOwn(const Priced& child, const UnitPrices& prices) const;

  /// The join-output CPU every join method charges, priced: a lower
  /// bound on any join's own price.
  double PriceJoinOutput(const JoinProps& props,
                         const UnitPrices& prices) const;

  // Node constructors: each charges through its charge function above.

  /// Hash join node; unordered output.
  PlanNodePtr HashJoin(PlanNodePtr left, PlanNodePtr right,
                       const JoinProps& props) const;

  /// Sort-merge join node; both inputs must already satisfy the edge's key
  /// order (the enumerator wraps them in Sort nodes as needed). Output
  /// keeps the merge order.
  PlanNodePtr SortMergeJoin(PlanNodePtr left, PlanNodePtr right,
                            const JoinProps& props) const;

  /// The PROBE leaf an index nested-loops join probes `index_id` on base
  /// reference `ref` through. It carries no usage: the join is charged.
  PlanNodePtr ProbeLeaf(size_t ref, int index_id, bool index_only) const;

  /// Index nested-loops join node with `probe` (a ProbeLeaf) as its inner.
  /// Preserves the outer order.
  PlanNodePtr IndexNLJoin(PlanNodePtr left, PlanNodePtr probe,
                          const JoinProps& props) const;

  /// Block nested-loops join node; unordered output.
  PlanNodePtr BlockNLJoin(PlanNodePtr left, PlanNodePtr right,
                          const JoinProps& props) const;

  /// Sorts `child` on `keys`. Returns `child` unchanged if its order
  /// already satisfies them.
  PlanNodePtr Sort(PlanNodePtr child, std::vector<query::SortKey> keys) const;

  /// Aggregation per the query's Aggregation spec. `sort_based` consumes a
  /// child already ordered on the group keys (enumerator adds the Sort);
  /// hash aggregation spills to temp when the group table exceeds memory.
  PlanNodePtr Aggregate(PlanNodePtr child, bool sort_based) const;

  /// Columns of `ref` that the query touches (restrictions, join keys,
  /// grouping and ordering keys) — the covering test for index-only access.
  std::vector<size_t> UsedColumns(size_t ref) const;

  /// True if `index_id` covers every used column of `ref`.
  bool IndexCoversRef(size_t ref, int index_id) const;

  /// Output pages for a (rows, width) pair under the configured page size.
  double PagesFor(double rows, double width_bytes) const;

  /// Selectivity of join edge `edge`: its override, else from the two
  /// columns' statistics. Computed once, at construction.
  double EdgeSelectivity(int edge) const { return edge_selectivity_[edge]; }

  const query::Query& query() const { return query_; }

 private:
  const catalog::Catalog& catalog_;
  const storage::StorageLayout& layout_;
  const storage::ResourceSpace& space_;
  const query::Query& query_;
  const catalog::SystemConfig& config_;
  std::vector<double> edge_selectivity_;

  // The operator formulas, each over an accumulator `acc` with
  // Io(device, seeks, pages), Cpu(instructions) and Rescan(input, times);
  // `In` is Input (charging) or Priced (pricing). They charge only the
  // operator's own work, in the order that keeps charged usage bitwise
  // stable.
  template <typename In, typename Acc>
  void HashJoinFormula(const In& left, const In& right,
                       const JoinProps& props, Acc& acc) const;
  template <typename In, typename Acc>
  void SortMergeJoinFormula(const In& left, const In& right,
                            const JoinProps& props, Acc& acc) const;
  template <typename In, typename Acc>
  void IndexNLJoinFormula(const In& left, size_t right_ref, int index_id,
                          bool index_only, const JoinProps& props,
                          Acc& acc) const;
  template <typename In, typename Acc>
  void BlockNLJoinFormula(const In& left, const In& right,
                          const JoinProps& props, Acc& acc) const;
  template <typename In, typename Acc>
  void SortFormula(const In& child, Acc& acc) const;

  /// CPU instructions per joined output row, residual filters included.
  double JoinOutputInstructions(const JoinProps& props) const;

  /// A join node's shared fields; the caller charges its usage and sets
  /// its order.
  std::shared_ptr<PlanNode> NewJoin(OpType op, PlanNodePtr left,
                                    PlanNodePtr right,
                                    const JoinProps& props) const;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_COST_MODEL_H_
