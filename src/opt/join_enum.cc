#include "opt/join_enum.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

namespace costsense::opt {

namespace {

/// True if some entry is no costlier than `cost` and has an order at least
/// as useful as `order`. Depends only on (cost, order), so a candidate is
/// tested before its node is built.
template <typename T>
bool Dominated(const std::vector<T>& entries, double cost,
               const std::vector<query::SortKey>& order) {
  for (const T& e : entries) {
    if (e.cost <= cost && OrderSatisfies(e.order(), order)) return true;
  }
  return false;
}

/// Adds an entry that is not Dominated: evicts the entries it dominates
/// and, past `cap` entries, the first most expensive one.
template <typename T>
void Insert(std::vector<T>& entries, const T& entry, size_t cap) {
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&entry](const T& e) {
                                 return entry.cost <= e.cost &&
                                        OrderSatisfies(entry.order(),
                                                       e.order());
                               }),
                entries.end());
  entries.push_back(entry);
  if (entries.size() > cap) {
    size_t worst = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].cost > entries[worst].cost) worst = i;
    }
    entries.erase(entries.begin() + static_cast<long>(worst));
  }
}

template <typename T>
void AddEntry(std::vector<T>& entries, const T& entry, size_t cap) {
  if (!Dominated(entries, entry.cost, entry.order())) {
    Insert(entries, entry, cap);
  }
}

}  // namespace

JoinEnumerator::JoinEnumerator(const PreparedSpace& prepared)
    : prepared_(prepared),
      model_(prepared.model()),
      options_(prepared.options()) {}

void JoinEnumerator::Offer(const core::CostVector& costs,
                           const std::vector<query::SortKey>& order,
                           const Recipe& recipe) {
  ++counters_.priced;
  const double cost = core::TotalCost(usage_, costs);
  if (Dominated(frontier_, cost, order)) return;
  Insert(frontier_, Candidate{cost, &order, recipe},
         options_.max_entries_per_subset);
}

void JoinEnumerator::EmitJoins(const core::CostVector& costs,
                               const PreparedSpace::Partition& partition,
                               uint32_t right_mask,
                               const CostModel::JoinProps& props) {
  const uint32_t left_mask = partition.left;
  const std::vector<Entry>& left_entries = dp_[left_mask];
  const std::vector<Entry>& right_entries = dp_[right_mask];
  const std::vector<query::JoinEdge>& joins = prepared_.query().joins;
  const uint32_t edges = partition.edges;
  const int first_edge = edges == 0 ? -1 : std::countr_zero(edges);
  Recipe recipe;
  recipe.left_mask = left_mask;
  recipe.props = props;
  recipe.props.residual_edges = partition.residual_edges;

  // Index nested loops: right side must be a lone base ref probed through
  // an index on the join column.
  if (options_.enable_index_nl_join && std::has_single_bit(right_mask)) {
    const size_t r2 = static_cast<size_t>(std::countr_zero(right_mask));
    recipe.op = OpType::kIndexNLJoin;
    for (uint32_t rest = edges; rest != 0; rest &= rest - 1) {
      const int ei = std::countr_zero(rest);
      const query::JoinEdge& e = joins[ei];
      const size_t inner_col =
          e.right_ref == r2 ? e.right_column : e.left_column;
      recipe.props.edge = ei;
      for (const PreparedSpace::ProbeIndex& probe :
           prepared_.ProbeIndexes(r2)) {
        if (probe.lead_column != inner_col) continue;
        for (uint32_t li = 0; li < left_entries.size(); ++li) {
          const PlanNode& l = *left_entries[li].plan;
          recipe.left = li;
          for (const PlanNodePtr* leaf :
               {&probe.leaf, &probe.index_only_leaf}) {
            if (*leaf == nullptr) continue;
            model_.ChargeIndexNLJoin(l, r2, probe.index_id,
                                     (*leaf)->index_only, recipe.props,
                                     usage_);
            recipe.probe = leaf;
            Offer(costs, l.order, recipe);
          }
        }
      }
    }
  }

  // A sort-merge input depends on (entry, edge) only: charge its sort
  // once per partition rather than once per pairing.
  const bool sort_merge = options_.enable_sort_merge_join && edges != 0;
  const size_t nl = left_entries.size();
  const size_t nr = right_entries.size();
  const size_t num_edges = static_cast<size_t>(std::popcount(edges));
  left_sorted_.clear();
  right_sorted_.clear();
  if (sort_merge) {
    sort_usage_.resize(std::max(sort_usage_.size(), (nl + nr) * num_edges));
    size_t slot = 0;
    for (uint32_t rest = edges; rest != 0; rest &= rest - 1) {
      const int ei = std::countr_zero(rest);
      const std::vector<query::SortKey>& left_keys =
          prepared_.EdgeKey(ei, left_mask);
      const std::vector<query::SortKey>& right_keys =
          prepared_.EdgeKey(ei, right_mask);
      for (const Entry& l : left_entries) {
        left_sorted_.push_back(
            model_.SortedInput(*l.plan, left_keys, sort_usage_[slot++]));
      }
      for (const Entry& r : right_entries) {
        right_sorted_.push_back(
            model_.SortedInput(*r.plan, right_keys, sort_usage_[slot++]));
      }
    }
  }

  // Partitions without a connecting edge exist only where cross products
  // are allowed or needed, so block nested loops always applies.
  for (uint32_t li = 0; li < nl; ++li) {
    const PlanNode& l = *left_entries[li].plan;
    recipe.left = li;
    for (uint32_t ri = 0; ri < nr; ++ri) {
      const PlanNode& r = *right_entries[ri].plan;
      recipe.right = ri;
      if (edges != 0 && options_.enable_hash_join) {
        recipe.op = OpType::kHashJoin;
        recipe.props.edge = first_edge;
        model_.ChargeHashJoin(l, r, recipe.props, usage_);
        Offer(costs, unordered_, recipe);
      }
      if (sort_merge) {
        recipe.op = OpType::kSortMergeJoin;
        size_t j = 0;
        for (uint32_t rest = edges; rest != 0; rest &= rest - 1, ++j) {
          const int ei = std::countr_zero(rest);
          recipe.props.edge = ei;
          recipe.left_keys = &prepared_.EdgeKey(ei, left_mask);
          recipe.right_keys = &prepared_.EdgeKey(ei, right_mask);
          model_.ChargeSortMergeJoin(left_sorted_[j * nl + li],
                                     right_sorted_[j * nr + ri], recipe.props,
                                     usage_);
          // The merge emits the left key's order.
          Offer(costs, *recipe.left_keys, recipe);
        }
      }
      if (options_.enable_block_nl_join) {
        recipe.op = OpType::kBlockNLJoin;
        recipe.props.edge = first_edge;
        model_.ChargeBlockNLJoin(l, r, recipe.props, usage_);
        Offer(costs, unordered_, recipe);
      }
    }
  }
}

PlanNodePtr JoinEnumerator::Build(const Recipe& recipe, uint32_t mask) const {
  const PlanNodePtr& left = dp_[recipe.left_mask][recipe.left].plan;
  if (recipe.op == OpType::kIndexNLJoin) {
    return model_.IndexNLJoin(left, *recipe.probe, recipe.props);
  }
  const PlanNodePtr& right = dp_[mask ^ recipe.left_mask][recipe.right].plan;
  switch (recipe.op) {
    case OpType::kHashJoin:
      return model_.HashJoin(left, right, recipe.props);
    case OpType::kSortMergeJoin:
      return model_.SortMergeJoin(model_.Sort(left, *recipe.left_keys),
                                  model_.Sort(right, *recipe.right_keys),
                                  recipe.props);
    default:  // OpType::kBlockNLJoin
      return model_.BlockNLJoin(left, right, recipe.props);
  }
}

Result<PlanNodePtr> JoinEnumerator::BestPlan(const core::CostVector& costs) {
  const size_t n = prepared_.num_refs();
  const size_t cap = options_.max_entries_per_subset;
  for (std::vector<Entry>& entries : dp_) entries.clear();
  dp_.resize(size_t{1} << n);

  // Base access paths.
  for (size_t r = 0; r < n; ++r) {
    for (const PlanNodePtr& path : prepared_.AccessPaths(r)) {
      AddEntry(dp_[size_t{1} << r],
               Entry{path, core::TotalCost(path->usage, costs)}, cap);
    }
  }

  // Joins, subset by subset: offer every candidate to the frontier, then
  // build the survivors, in frontier order.
  for (const uint32_t mask : prepared_.JoinSubsets()) {
    CostModel::JoinProps props;
    props.output_rows = prepared_.SubsetRows(mask);
    props.output_width_bytes = prepared_.SubsetWidth(mask);
    frontier_.clear();
    for (const PreparedSpace::Partition& partition :
         prepared_.Partitions(mask)) {
      const uint32_t right_mask = mask ^ partition.left;
      if (dp_[partition.left].empty() || dp_[right_mask].empty()) continue;
      EmitJoins(costs, partition, right_mask, props);
    }
    std::vector<Entry>& entries = dp_[mask];
    for (const Candidate& c : frontier_) {
      entries.push_back(Entry{Build(c.recipe, mask), c.cost});
    }
    counters_.built += frontier_.size();
    counters_.kept += entries.size();
  }

  const std::vector<Entry>& full = dp_[(size_t{1} << n) - 1];
  if (full.empty()) {
    return Status::Internal("join enumeration produced no complete plan");
  }

  // Aggregation, then the final presentation sort.
  const query::Query& query = prepared_.query();
  std::vector<Entry> finals;
  for (const Entry& e : full) {
    std::vector<PlanNodePtr> variants;
    if (query.aggregation.present) {
      variants.push_back(model_.Aggregate(e.plan, /*sort_based=*/false));
      if (!query.aggregation.group_keys.empty()) {
        variants.push_back(model_.Aggregate(
            model_.Sort(e.plan, query.aggregation.group_keys),
            /*sort_based=*/true));
      }
    } else {
      variants.push_back(e.plan);
    }
    for (PlanNodePtr& v : variants) {
      PlanNodePtr finished = model_.Sort(std::move(v), query.order_by);
      const double cost = core::TotalCost(finished->usage, costs);
      AddEntry(finals, Entry{std::move(finished), cost}, cap);
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
