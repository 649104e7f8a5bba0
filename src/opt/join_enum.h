#ifndef COSTSENSE_OPT_JOIN_ENUM_H_
#define COSTSENSE_OPT_JOIN_ENUM_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/vectors.h"
#include "opt/access_paths.h"
#include "opt/cost_model.h"
#include "opt/plan.h"

namespace costsense::opt {

/// System-R-style dynamic-programming join enumerator over table subsets,
/// with interesting orders and (optionally) bushy trees — the plan space
/// the paper attributes to the DB2 optimizer (Section 7.1). Pruning is by
/// estimated total cost U . C under the cost vector supplied to BestPlan,
/// so re-running with different cost vectors reproduces the paper's
/// methodology of re-invoking the optimizer per cost setting. Candidates
/// are priced in scratch space through the cost model's charge functions;
/// only those that survive the dominance test become plan nodes.
class JoinEnumerator {
 public:
  /// What the enumeration did with join candidates, summed over every
  /// BestPlan call on this enumerator. Base access paths and the final
  /// aggregate/sort variants are not counted.
  struct Counters {
    /// Candidates whose usage vector and total cost were computed.
    size_t priced = 0;
    /// Candidates that passed the dominance test and became plan nodes.
    size_t built = 0;
    /// Built entries still in the DP table when enumeration ended (the
    /// rest were evicted by a later, dominating candidate).
    size_t kept = 0;
  };

  JoinEnumerator(const CostModel& model, const catalog::Catalog& catalog,
                 const OptimizerOptions& options);

  /// Returns the estimated optimal plan under `costs` (fully annotated,
  /// including its resource usage vector and canonical id). Fails on
  /// malformed queries (too many tables, missing refs).
  [[nodiscard]] Result<PlanNodePtr> BestPlan(const core::CostVector& costs);

  /// Cardinality shared by every plan covering subset `mask` (exposed for
  /// tests).
  double SubsetRows(uint32_t mask) const;

  const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    PlanNodePtr plan;
    double cost = 0.0;
  };

  /// An index an index nested-loops join can probe on one reference.
  struct ProbeIndex {
    int index_id = -1;
    size_t lead_column = 0;
    /// Index-only probing is enabled and the index covers the reference.
    bool covers = false;
  };

  /// True if some entry is no costlier than `cost` and has an order at
  /// least as useful as `order`. Depends only on (cost, order), so a
  /// candidate is tested before its node is built.
  bool Dominated(const std::vector<Entry>& entries, double cost,
                 const std::vector<query::SortKey>& order) const;

  /// Adds an entry that is not Dominated: evicts the entries it dominates
  /// and caps the frontier size.
  void Insert(std::vector<Entry>& entries, Entry entry) const;

  /// Insert unless Dominated.
  void AddEntry(std::vector<Entry>& entries, Entry entry) const;

  double EdgeSelectivity(const query::JoinEdge& edge) const;
  double BaseRows(size_t ref) const;
  double BaseWidth(size_t ref) const;

  /// Output width of a join covering `mask` (semi/anti right sides are
  /// projected away).
  double SubsetWidth(uint32_t mask) const;

  /// Join edges connecting `left_mask` and `right_mask` (either
  /// orientation), written to `out`.
  void ConnectingEdges(uint32_t left_mask, uint32_t right_mask,
                       std::vector<int>& out) const;

  /// Prices every physical join of (left entry, right entry) over the
  /// connecting `edges`, and builds and adds to `out` those that survive
  /// the dominance test. `props` carries the subset's rows, width and
  /// residual-edge count.
  void EmitJoins(const core::CostVector& costs, uint32_t left_mask,
                 uint32_t right_mask, const std::vector<int>& edges,
                 const CostModel::JoinProps& props,
                 const std::vector<Entry>& left_entries,
                 const std::vector<Entry>& right_entries,
                 std::vector<Entry>& out);

  const CostModel& model_;
  const catalog::Catalog& catalog_;
  const query::Query& query_;
  const OptimizerOptions& options_;
  bool cross_products_needed_ = false;
  /// Per reference: the indexes an index nested-loops join can probe.
  std::vector<std::vector<ProbeIndex>> probe_indexes_;
  Counters counters_;

  // Scratch space reused across candidates and partitions: the
  // candidate's usage, the sort-merge keys per connecting edge, the sorted
  // inputs per (edge, entry) with their usage, and the partition's edges.
  core::UsageVector usage_;
  std::vector<std::vector<query::SortKey>> left_keys_;
  std::vector<std::vector<query::SortKey>> right_keys_;
  std::vector<core::UsageVector> sort_usage_;
  std::vector<CostModel::Input> left_sorted_;
  std::vector<CostModel::Input> right_sorted_;
  const std::vector<query::SortKey> unordered_;
  std::vector<int> edges_;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_JOIN_ENUM_H_
