#ifndef COSTSENSE_OPT_PREPARED_SPACE_H_
#define COSTSENSE_OPT_PREPARED_SPACE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "opt/access_paths.h"
#include "opt/cost_model.h"
#include "opt/plan.h"
#include "query/query.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace costsense::opt {

/// The part of one query's plan space under one storage layout that does
/// not depend on the resource cost vector C: subset cardinalities and
/// widths, the valid partitions of every subset with their connecting
/// edges, the probe indexes an index nested-loops join can use, and the
/// base access-path and PROBE leaf nodes. The paper's method re-invokes
/// the optimizer once per cost setting (Section 7.1); preparing this once
/// per (query, layout) leaves each call only the C-dependent work.
///
/// Immutable after Prepare, so one instance may be shared read-only by
/// concurrent JoinEnumerator runs. Refers to the catalog, layout, resource
/// space and query it was prepared from; they must outlive it. The leaf
/// nodes it hands out are shared, immutable, and outlive it in any plan
/// that holds them.
class PreparedSpace {
 public:
  /// One ordered split of a subset into a left (outer) and right (inner)
  /// side that the enumeration considers: the partition passes the
  /// bushy/left-deep rule, the cross-product rule and the semi/anti rule
  /// (the subquery side of a semi or anti join alone on the right).
  struct Partition {
    uint32_t left = 0;
    /// Join edges connecting the two sides, as a bitmask over
    /// query().joins; the lowest set bit is the edge hash and block
    /// nested-loops joins key on.
    uint32_t edges = 0;
    /// Connecting edges beyond the first, applied as residual filters.
    int residual_edges = 0;
  };

  /// An index an index nested-loops join can probe on one reference, with
  /// its PROBE leaves.
  struct ProbeIndex {
    int index_id = -1;
    size_t lead_column = 0;
    /// The PROBE leaf, and the index-only one (null unless index-only
    /// probing is enabled and the index covers the reference).
    PlanNodePtr leaf;
    PlanNodePtr index_only_leaf;
  };

  /// Prepares `query` under (layout, space). Fails on queries the
  /// enumeration cannot plan: no table refs, more than 20 refs, or more
  /// than 32 join edges.
  [[nodiscard]] static Result<std::unique_ptr<const PreparedSpace>> Prepare(
      const catalog::Catalog& catalog, const storage::StorageLayout& layout,
      const storage::ResourceSpace& space, const query::Query& query,
      const OptimizerOptions& options);

  PreparedSpace(const PreparedSpace&) = delete;
  PreparedSpace& operator=(const PreparedSpace&) = delete;

  const CostModel& model() const { return model_; }
  const query::Query& query() const { return model_.query(); }
  const OptimizerOptions& options() const { return options_; }
  size_t num_refs() const { return query().refs.size(); }

  /// Cardinality shared by every plan covering subset `mask`.
  double SubsetRows(uint32_t mask) const { return rows_[mask]; }
  /// Output width of a join covering `mask` (semi/anti right sides are
  /// projected away).
  double SubsetWidth(uint32_t mask) const { return width_[mask]; }

  /// The subsets of two or more refs, by increasing population count (ties
  /// in increasing mask order): the order the DP fills its table in.
  std::span<const uint32_t> JoinSubsets() const { return join_subsets_; }

  /// The valid partitions of `mask`, in decreasing order of their left
  /// side.
  std::span<const Partition> Partitions(uint32_t mask) const {
    return std::span<const Partition>(partitions_)
        .subspan(partition_begin_[mask],
                 partition_begin_[mask + 1] - partition_begin_[mask]);
  }

  /// The access-path leaves of reference `ref` (EnumerateAccessPaths).
  const std::vector<PlanNodePtr>& AccessPaths(size_t ref) const {
    return access_paths_[ref];
  }

  /// The indexes an index nested-loops join can probe on `ref`.
  const std::vector<ProbeIndex>& ProbeIndexes(size_t ref) const {
    return probe_indexes_[ref];
  }

  /// The one-key order on the endpoint of join edge `edge` that is in
  /// `mask` (its left endpoint when both are): the order a sort-merge join
  /// with that side as its input sorts on.
  const std::vector<query::SortKey>& EdgeKey(int edge, uint32_t mask) const;

 private:
  PreparedSpace(const catalog::Catalog& catalog,
                const storage::StorageLayout& layout,
                const storage::ResourceSpace& space, const query::Query& query,
                const OptimizerOptions& options);

  bool ValidPartition(uint32_t right_mask, uint32_t edges) const;

  const CostModel model_;
  const OptimizerOptions options_;
  /// The join graph is disconnected, so cross products are unavoidable.
  bool cross_products_needed_ = false;
  std::vector<double> rows_;
  std::vector<double> width_;
  std::vector<uint32_t> join_subsets_;
  std::vector<Partition> partitions_;
  /// Partitions(mask) is partitions_[begin[mask], begin[mask + 1]).
  std::vector<uint32_t> partition_begin_;
  std::vector<std::vector<PlanNodePtr>> access_paths_;
  std::vector<std::vector<ProbeIndex>> probe_indexes_;
  /// Per join edge: the one-key orders on its left and right endpoint.
  std::vector<std::vector<query::SortKey>> edge_keys_;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_PREPARED_SPACE_H_
