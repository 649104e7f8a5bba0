#include "opt/join_enum.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "catalog/selectivity.h"
#include "common/macros.h"

namespace costsense::opt {

namespace {
constexpr double kMinRows = 0.01;
}  // namespace

JoinEnumerator::JoinEnumerator(const CostModel& model,
                               const catalog::Catalog& catalog,
                               const OptimizerOptions& options)
    : model_(model),
      catalog_(catalog),
      query_(model.query()),
      options_(options) {
  // If the join graph is disconnected, cross products are unavoidable.
  const size_t n = query_.refs.size();
  if (n > 1) {
    std::vector<uint32_t> comp(n);
    for (size_t i = 0; i < n; ++i) comp[i] = static_cast<uint32_t>(i);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const query::JoinEdge& e : query_.joins) {
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
  // Probe targets and their covering test depend on the query only.
  probe_indexes_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (int index_id : catalog_.IndexesOn(query_.refs[r].table_id)) {
      ProbeIndex probe;
      probe.index_id = index_id;
      probe.lead_column = catalog_.index(index_id).key_columns.front();
      probe.covers =
          options_.enable_index_only && model_.IndexCoversRef(r, index_id);
      probe_indexes_[r].push_back(probe);
    }
  }
}

double JoinEnumerator::BaseRows(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  return std::max(kMinRows, catalog_.table(tref.table_id).row_count() *
                                tref.local_selectivity);
}

double JoinEnumerator::BaseWidth(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  return catalog_.table(tref.table_id).row_width_bytes() *
         tref.projected_width_fraction;
}

double JoinEnumerator::EdgeSelectivity(const query::JoinEdge& edge) const {
  if (edge.selectivity_override >= 0.0) return edge.selectivity_override;
  const catalog::Table& lt =
      catalog_.table(query_.refs[edge.left_ref].table_id);
  const catalog::Table& rt =
      catalog_.table(query_.refs[edge.right_ref].table_id);
  return catalog::JoinSelectivity(lt.column(edge.left_column).stats,
                                  rt.column(edge.right_column).stats);
}

double JoinEnumerator::SubsetRows(uint32_t mask) const {
  double rows = 1.0;
  for (size_t r = 0; r < query_.refs.size(); ++r) {
    if ((mask >> r) & 1u) rows *= BaseRows(r);
  }
  for (const query::JoinEdge& e : query_.joins) {
    if (!(((mask >> e.left_ref) & 1u) && ((mask >> e.right_ref) & 1u))) {
      continue;
    }
    const double sel = EdgeSelectivity(e);
    switch (e.kind) {
      case query::JoinKind::kInner:
        rows *= sel;
        break;
      case query::JoinKind::kSemi: {
        // The subquery side's cardinality does not multiply into the
        // output; each outer row survives with the match probability.
        const double rr = BaseRows(e.right_ref);
        rows *= std::min(1.0, sel * rr) / rr;
        break;
      }
      case query::JoinKind::kAnti: {
        const double rr = BaseRows(e.right_ref);
        rows *= std::clamp(1.0 - sel * rr, 1e-9, 1.0) / rr;
        break;
      }
    }
  }
  return std::max(kMinRows, rows);
}

double JoinEnumerator::SubsetWidth(uint32_t mask) const {
  double width = 0.0;
  for (size_t r = 0; r < query_.refs.size(); ++r) {
    if (!((mask >> r) & 1u)) continue;
    bool projected_away = false;
    for (const query::JoinEdge& e : query_.joins) {
      if (e.kind != query::JoinKind::kInner && e.right_ref == r &&
          ((mask >> e.left_ref) & 1u)) {
        projected_away = true;
      }
    }
    if (!projected_away) width += BaseWidth(r);
  }
  return std::max(8.0, width);
}

void JoinEnumerator::ConnectingEdges(uint32_t left_mask, uint32_t right_mask,
                                     std::vector<int>& out) const {
  out.clear();
  for (size_t i = 0; i < query_.joins.size(); ++i) {
    const query::JoinEdge& e = query_.joins[i];
    const bool l_in_left = (left_mask >> e.left_ref) & 1u;
    const bool l_in_right = (right_mask >> e.left_ref) & 1u;
    const bool r_in_left = (left_mask >> e.right_ref) & 1u;
    const bool r_in_right = (right_mask >> e.right_ref) & 1u;
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) {
      out.push_back(static_cast<int>(i));
    }
  }
}

bool JoinEnumerator::Dominated(const std::vector<Entry>& entries, double cost,
                               const std::vector<query::SortKey>& order) const {
  for (const Entry& e : entries) {
    // An existing entry is no costlier and its order is at least as
    // useful.
    if (e.cost <= cost && OrderSatisfies(e.plan->order, order)) return true;
  }
  return false;
}

void JoinEnumerator::Insert(std::vector<Entry>& entries, Entry entry) const {
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&entry](const Entry& e) {
                                 return entry.cost <= e.cost &&
                                        OrderSatisfies(entry.plan->order,
                                                       e.plan->order);
                               }),
                entries.end());
  entries.push_back(std::move(entry));
  if (entries.size() > options_.max_entries_per_subset) {
    // Evict the most expensive entry.
    size_t worst = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].cost > entries[worst].cost) worst = i;
    }
    entries.erase(entries.begin() + static_cast<long>(worst));
  }
}

void JoinEnumerator::AddEntry(std::vector<Entry>& entries,
                              Entry entry) const {
  if (Dominated(entries, entry.cost, entry.plan->order)) return;
  Insert(entries, std::move(entry));
}

void JoinEnumerator::EmitJoins(const core::CostVector& costs,
                               uint32_t left_mask, uint32_t right_mask,
                               const std::vector<int>& edges,
                               const CostModel::JoinProps& props,
                               const std::vector<Entry>& left_entries,
                               const std::vector<Entry>& right_entries,
                               std::vector<Entry>& out) {
  // Semi/anti joins are only valid with the subquery side alone on the
  // right; skip partitions that would put an anti/semi inner elsewhere.
  for (int ei : edges) {
    const query::JoinEdge& e = query_.joins[ei];
    if (e.kind != query::JoinKind::kInner &&
        right_mask != (uint32_t{1} << e.right_ref)) {
      return;
    }
  }

  // Prices the candidate charged into usage_ and builds it only if no
  // entry dominates it. Candidates are offered in a fixed order, so the
  // table keeps the same entries, ties included, as building every one.
  auto offer = [&](const std::vector<query::SortKey>& order, auto build) {
    ++counters_.priced;
    const double cost = core::TotalCost(usage_, costs);
    if (Dominated(out, cost, order)) return;
    ++counters_.built;
    Insert(out, Entry{build(), cost});
  };

  // Index nested loops: right side must be a lone base ref probed through
  // an index on the join column.
  if (options_.enable_index_nl_join && std::has_single_bit(right_mask)) {
    const size_t r2 = static_cast<size_t>(std::countr_zero(right_mask));
    for (int ei : edges) {
      const query::JoinEdge& e = query_.joins[ei];
      const size_t inner_col =
          e.right_ref == r2 ? e.right_column : e.left_column;
      CostModel::JoinProps p = props;
      p.edge = ei;
      for (const ProbeIndex& probe : probe_indexes_[r2]) {
        if (probe.lead_column != inner_col) continue;
        for (const Entry& l : left_entries) {
          for (const bool index_only : {false, true}) {
            if (index_only && !probe.covers) continue;
            model_.ChargeIndexNLJoin(*l.plan, r2, probe.index_id, index_only,
                                     p, usage_);
            offer(l.plan->order, [&] {
              return model_.IndexNLJoin(l.plan, r2, probe.index_id,
                                        index_only, p);
            });
          }
        }
      }
    }
  }

  // A sort-merge input depends on (entry, edge) only: charge its sort
  // once per partition rather than once per pairing.
  const bool sort_merge = options_.enable_sort_merge_join && !edges.empty();
  const size_t nl = left_entries.size();
  const size_t nr = right_entries.size();
  left_sorted_.clear();
  right_sorted_.clear();
  if (sort_merge) {
    if (left_keys_.size() < edges.size()) {
      left_keys_.resize(edges.size(), std::vector<query::SortKey>(1));
      right_keys_.resize(edges.size(), std::vector<query::SortKey>(1));
    }
    sort_usage_.resize(std::max(sort_usage_.size(), (nl + nr) * edges.size()));
    size_t slot = 0;
    for (size_t j = 0; j < edges.size(); ++j) {
      const query::JoinEdge& e = query_.joins[edges[j]];
      const bool left_holds = (left_mask >> e.left_ref) & 1u;
      left_keys_[j][0] = left_holds
                             ? query::SortKey{e.left_ref, e.left_column}
                             : query::SortKey{e.right_ref, e.right_column};
      right_keys_[j][0] = left_holds
                              ? query::SortKey{e.right_ref, e.right_column}
                              : query::SortKey{e.left_ref, e.left_column};
      for (const Entry& l : left_entries) {
        left_sorted_.push_back(
            model_.SortedInput(*l.plan, left_keys_[j], sort_usage_[slot++]));
      }
      for (const Entry& r : right_entries) {
        right_sorted_.push_back(
            model_.SortedInput(*r.plan, right_keys_[j], sort_usage_[slot++]));
      }
    }
  }

  const bool block_nl =
      options_.enable_block_nl_join &&
      (!edges.empty() || options_.allow_cross_products ||
       cross_products_needed_);
  for (size_t li = 0; li < nl; ++li) {
    const Entry& l = left_entries[li];
    for (size_t ri = 0; ri < nr; ++ri) {
      const Entry& r = right_entries[ri];
      if (!edges.empty() && options_.enable_hash_join) {
        CostModel::JoinProps p = props;
        p.edge = edges[0];
        model_.ChargeHashJoin(*l.plan, *r.plan, p, usage_);
        offer(unordered_, [&] { return model_.HashJoin(l.plan, r.plan, p); });
      }
      if (sort_merge) {
        for (size_t j = 0; j < edges.size(); ++j) {
          CostModel::JoinProps p = props;
          p.edge = edges[j];
          model_.ChargeSortMergeJoin(left_sorted_[j * nl + li],
                                     right_sorted_[j * nr + ri], p, usage_);
          // The merge emits the left key's order.
          offer(left_keys_[j], [&] {
            return model_.SortMergeJoin(model_.Sort(l.plan, left_keys_[j]),
                                        model_.Sort(r.plan, right_keys_[j]),
                                        p);
          });
        }
      }
      if (block_nl) {
        CostModel::JoinProps p = props;
        p.edge = edges.empty() ? -1 : edges[0];
        model_.ChargeBlockNLJoin(*l.plan, *r.plan, p, usage_);
        offer(unordered_,
              [&] { return model_.BlockNLJoin(l.plan, r.plan, p); });
      }
    }
  }
}

Result<PlanNodePtr> JoinEnumerator::BestPlan(const core::CostVector& costs) {
  const size_t n = query_.refs.size();
  if (n == 0) return Status::InvalidArgument("query has no table refs");
  if (n > 20) return Status::InvalidArgument("too many tables (max 20)");

  std::vector<std::vector<Entry>> dp(uint32_t{1} << n);

  // Base access paths.
  for (size_t r = 0; r < n; ++r) {
    for (PlanNodePtr& path :
         EnumerateAccessPaths(model_, catalog_, r, options_)) {
      Entry e;
      e.cost = core::TotalCost(path->usage, costs);
      e.plan = std::move(path);
      AddEntry(dp[uint32_t{1} << r], std::move(e));
    }
  }

  // Subsets by increasing population count.
  std::vector<uint32_t> masks;
  masks.reserve(dp.size() - 1);
  for (uint32_t m = 1; m < dp.size(); ++m) masks.push_back(m);
  std::stable_sort(masks.begin(), masks.end(),
                   [](uint32_t a, uint32_t b) {
                     return std::popcount(a) < std::popcount(b);
                   });

  for (uint32_t mask : masks) {
    if (std::popcount(mask) < 2) continue;
    // Cardinality and width depend on the covered subset only.
    CostModel::JoinProps props;
    props.output_rows = SubsetRows(mask);
    props.output_width_bytes = SubsetWidth(mask);
    // Enumerate ordered partitions (s1 = left/outer, s2 = right/inner).
    for (uint32_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const uint32_t s2 = mask ^ s1;
      if (!options_.bushy_joins && !std::has_single_bit(s2)) continue;
      if (dp[s1].empty() || dp[s2].empty()) continue;
      ConnectingEdges(s1, s2, edges_);
      if (edges_.empty() && !options_.allow_cross_products &&
          !cross_products_needed_) {
        continue;
      }
      props.residual_edges = std::max(0, static_cast<int>(edges_.size()) - 1);
      EmitJoins(costs, s1, s2, edges_, props, dp[s1], dp[s2], dp[mask]);
    }
    counters_.kept += dp[mask].size();
  }

  const uint32_t full = static_cast<uint32_t>(dp.size()) - 1;
  if (dp[full].empty()) {
    return Status::Internal("join enumeration produced no complete plan");
  }

  // Aggregation, then the final presentation sort.
  std::vector<Entry> finals;
  for (const Entry& e : dp[full]) {
    PlanNodePtr plan = e.plan;
    std::vector<PlanNodePtr> variants;
    if (query_.aggregation.present) {
      variants.push_back(model_.Aggregate(plan, /*sort_based=*/false));
      if (!query_.aggregation.group_keys.empty()) {
        variants.push_back(model_.Aggregate(
            model_.Sort(plan, query_.aggregation.group_keys),
            /*sort_based=*/true));
      }
    } else {
      variants.push_back(plan);
    }
    for (PlanNodePtr& v : variants) {
      PlanNodePtr finished = model_.Sort(std::move(v), query_.order_by);
      Entry fe;
      fe.cost = core::TotalCost(finished->usage, costs);
      fe.plan = std::move(finished);
      AddEntry(finals, std::move(fe));
    }
  }

  // Cheapest, with a deterministic tie-break on the canonical id. Ids are
  // rendered here, once per final candidate, and stored on the winner.
  std::vector<std::string> ids;
  ids.reserve(finals.size());
  for (const Entry& f : finals) ids.push_back(PlanId(*f.plan));
  size_t best = 0;
  for (size_t i = 1; i < finals.size(); ++i) {
    if (finals[i].cost < finals[best].cost ||
        (finals[i].cost == finals[best].cost && ids[i] < ids[best])) {
      best = i;
    }
  }
  if (!finals[best].plan->id.empty()) return finals[best].plan;
  auto root = std::make_shared<PlanNode>(*finals[best].plan);
  root->id = std::move(ids[best]);
  return PlanNodePtr(std::move(root));
}

}  // namespace costsense::opt
