#include "opt/prepared_space.h"

#include <algorithm>
#include <bit>

namespace costsense::opt {

namespace {
constexpr double kMinRows = 0.01;
}  // namespace

Result<std::unique_ptr<const PreparedSpace>> PreparedSpace::Prepare(
    const catalog::Catalog& catalog, const storage::StorageLayout& layout,
    const storage::ResourceSpace& space, const query::Query& query,
    const OptimizerOptions& options) {
  if (query.refs.empty()) {
    return Status::InvalidArgument("query has no table refs");
  }
  if (query.refs.size() > 20) {
    return Status::InvalidArgument("too many tables (max 20)");
  }
  if (query.joins.size() > 32) {
    return Status::InvalidArgument("too many join edges (max 32)");
  }
  return std::unique_ptr<const PreparedSpace>(
      new PreparedSpace(catalog, layout, space, query, options));
}

PreparedSpace::PreparedSpace(const catalog::Catalog& catalog,
                             const storage::StorageLayout& layout,
                             const storage::ResourceSpace& space,
                             const query::Query& query,
                             const OptimizerOptions& options)
    : model_(catalog, layout, space, query), options_(options) {
  const size_t n = query.refs.size();
  // If the join graph is disconnected, cross products are unavoidable.
  if (n > 1) {
    std::vector<uint32_t> comp(n);
    for (size_t i = 0; i < n; ++i) comp[i] = static_cast<uint32_t>(i);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const query::JoinEdge& e : query.joins) {
        const uint32_t m = std::min(comp[e.left_ref], comp[e.right_ref]);
        if (comp[e.left_ref] != m || comp[e.right_ref] != m) {
          comp[e.left_ref] = comp[e.right_ref] = m;
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (comp[i] != 0) cross_products_needed_ = true;
    }
  }

  // Per-ref and per-edge factors of the subset cardinalities and widths;
  // each subset multiplies (sums) its factors in ref order, then edge order.
  const std::vector<query::JoinEdge>& joins = query.joins;
  std::vector<double> base_rows(n);
  std::vector<double> base_width(n);
  for (size_t r = 0; r < n; ++r) {
    const query::TableRef& tref = query.refs[r];
    const catalog::Table& table = catalog.table(tref.table_id);
    base_rows[r] =
        std::max(kMinRows, table.row_count() * tref.local_selectivity);
    base_width[r] = table.row_width_bytes() * tref.projected_width_fraction;
  }
  std::vector<double> edge_factor(joins.size());
  // Per ref: the edges it is an endpoint of, and the left refs of the
  // semi/anti joins that project it away.
  std::vector<uint32_t> incident(n, 0);
  std::vector<uint32_t> projected_by(n, 0);
  for (size_t i = 0; i < joins.size(); ++i) {
    const query::JoinEdge& e = joins[i];
    const double sel = model_.EdgeSelectivity(static_cast<int>(i));
    const double rr = base_rows[e.right_ref];
    switch (e.kind) {
      case query::JoinKind::kInner:
        edge_factor[i] = sel;
        break;
      case query::JoinKind::kSemi:
        // The subquery side's cardinality does not multiply into the
        // output; each outer row survives with the match probability.
        edge_factor[i] = std::min(1.0, sel * rr) / rr;
        break;
      case query::JoinKind::kAnti:
        edge_factor[i] = std::clamp(1.0 - sel * rr, 1e-9, 1.0) / rr;
        break;
    }
    incident[e.left_ref] |= uint32_t{1} << i;
    incident[e.right_ref] |= uint32_t{1} << i;
    if (e.kind != query::JoinKind::kInner) {
      projected_by[e.right_ref] |= uint32_t{1} << e.left_ref;
    }
  }

  const uint32_t subsets = uint32_t{1} << n;
  rows_.assign(subsets, 0.0);
  width_.assign(subsets, 0.0);
  // Per subset: the edges with an endpoint in it. An edge connects two
  // disjoint sides exactly when both sides touch it.
  std::vector<uint32_t> touching(subsets, 0);
  for (uint32_t mask = 1; mask < subsets; ++mask) {
    touching[mask] =
        touching[mask & (mask - 1)] | incident[std::countr_zero(mask)];
    double rows = 1.0;
    double width = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (!((mask >> r) & 1u)) continue;
      rows *= base_rows[r];
      if ((mask & projected_by[r]) == 0) width += base_width[r];
    }
    for (size_t i = 0; i < joins.size(); ++i) {
      if (((mask >> joins[i].left_ref) & 1u) &&
          ((mask >> joins[i].right_ref) & 1u)) {
        rows *= edge_factor[i];
      }
    }
    rows_[mask] = std::max(kMinRows, rows);
    width_[mask] = std::max(8.0, width);
  }

  // Subsets by increasing population count; each one's valid partitions
  // (s1 = left/outer, s2 = right/inner) in the order the DP offers them.
  for (uint32_t m = 1; m < subsets; ++m) {
    if (std::popcount(m) >= 2) join_subsets_.push_back(m);
  }
  std::stable_sort(join_subsets_.begin(), join_subsets_.end(),
                   [](uint32_t a, uint32_t b) {
                     return std::popcount(a) < std::popcount(b);
                   });
  partition_begin_.assign(subsets + 1, 0);
  for (uint32_t mask = 0; mask < subsets; ++mask) {
    partition_begin_[mask] = static_cast<uint32_t>(partitions_.size());
    if (std::popcount(mask) < 2) continue;
    for (uint32_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const uint32_t s2 = mask ^ s1;
      const uint32_t edges = touching[s1] & touching[s2];
      if (!ValidPartition(s2, edges)) continue;
      partitions_.push_back(
          {s1, edges, std::max(0, std::popcount(edges) - 1)});
    }
  }
  partition_begin_[subsets] = static_cast<uint32_t>(partitions_.size());

  access_paths_.resize(n);
  probe_indexes_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    access_paths_[r] = EnumerateAccessPaths(model_, catalog, r, options_);
    for (int index_id : catalog.IndexesOn(query.refs[r].table_id)) {
      ProbeIndex probe;
      probe.index_id = index_id;
      probe.lead_column = catalog.index(index_id).key_columns.front();
      probe.leaf = model_.ProbeLeaf(r, index_id, /*index_only=*/false);
      if (options_.enable_index_only && model_.IndexCoversRef(r, index_id)) {
        probe.index_only_leaf =
            model_.ProbeLeaf(r, index_id, /*index_only=*/true);
      }
      probe_indexes_[r].push_back(std::move(probe));
    }
  }

  edge_keys_.reserve(2 * query.joins.size());
  for (const query::JoinEdge& e : query.joins) {
    edge_keys_.push_back({query::SortKey{e.left_ref, e.left_column}});
    edge_keys_.push_back({query::SortKey{e.right_ref, e.right_column}});
  }
}

const std::vector<query::SortKey>& PreparedSpace::EdgeKey(
    int edge, uint32_t mask) const {
  const bool holds_left = (mask >> query().joins[edge].left_ref) & 1u;
  return edge_keys_[2 * static_cast<size_t>(edge) + (holds_left ? 0 : 1)];
}

bool PreparedSpace::ValidPartition(uint32_t right_mask,
                                   uint32_t edges) const {
  if (!options_.bushy_joins && !std::has_single_bit(right_mask)) return false;
  if (edges == 0 && !options_.allow_cross_products &&
      !cross_products_needed_) {
    return false;
  }
  // Semi/anti joins are only valid with the subquery side alone on the
  // right.
  for (uint32_t rest = edges; rest != 0; rest &= rest - 1) {
    const query::JoinEdge& e = query().joins[std::countr_zero(rest)];
    if (e.kind != query::JoinKind::kInner &&
        right_mask != (uint32_t{1} << e.right_ref)) {
      return false;
    }
  }
  return true;
}

}  // namespace costsense::opt
