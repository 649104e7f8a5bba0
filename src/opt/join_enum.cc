#include "opt/join_enum.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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

/// Relative margin between a candidate's scalar estimate and the lowest
/// exact cost it could have. With usage and C non-negative, the estimate
/// and the exact U . C sum the same non-negative terms in a different
/// order, so they differ by a few dozen ulps at most.
constexpr double kEstimateMargin = 1e-9;

}  // namespace

JoinEnumerator::JoinEnumerator(const PreparedSpace& prepared)
    : prepared_(prepared),
      model_(prepared.model()),
      options_(prepared.options()) {}

JoinEnumerator::Entry JoinEnumerator::MakeEntry(PlanNodePtr plan,
                                                double cost) const {
  const double sort = model_.PriceSortOwn(CostModel::Priced(*plan, cost),
                                          prices_);
  return Entry(std::move(plan), cost, cost + sort);
}

double JoinEnumerator::FrontierMin(const std::vector<query::SortKey>& order) {
  for (const auto& [cached, min] : frontier_min_) {
    if (cached == &order) return min;
  }
  double min = std::numeric_limits<double>::infinity();
  for (const Candidate& c : frontier_) {
    if (c.cost < min && OrderSatisfies(c.order(), order)) min = c.cost;
  }
  frontier_min_.emplace_back(&order, min);
  return min;
}

bool JoinEnumerator::Rejects(double estimate,
                             const std::vector<query::SortKey>& order) {
  if (!bound_first_) return false;
  const double lo = estimate * (1.0 - kEstimateMargin);
  // Either rule leaves the frontier as Offer would: the candidate is
  // Dominated, or Insert would append it and evict it at once.
  return (frontier_.size() >= options_.max_entries_per_subset &&
          lo > frontier_max_) ||
         FrontierMin(order) <= lo;
}

void JoinEnumerator::Offer(const core::CostVector& costs,
                           const std::vector<query::SortKey>& order,
                           const Recipe& recipe) {
  ++counters_.charged;
  const double cost = core::TotalCost(usage_, costs);
  if (Dominated(frontier_, cost, order)) return;
  Insert(frontier_, Candidate{cost, &order, recipe},
         options_.max_entries_per_subset);
  frontier_min_.clear();
  frontier_max_ = 0.0;
  for (const Candidate& c : frontier_) {
    frontier_max_ = std::max(frontier_max_, c.cost);
  }
}

const CostModel::Input& JoinEnumerator::MergeInput(
    size_t slot, const Entry& e, const std::vector<query::SortKey>& keys) {
  std::optional<CostModel::Input>& input = sorted_[slot];
  if (!input) {
    input.emplace(model_.SortedInput(*e.plan, keys, sort_usage_[slot]));
  }
  return *input;
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
          const Entry& l = left_entries[li];
          recipe.left = li;
          for (const PlanNodePtr* leaf :
               {&probe.leaf, &probe.index_only_leaf}) {
            if (*leaf == nullptr) continue;
            ++counters_.priced;
            const double own = model_.PriceIndexNLJoinOwn(
                l, r2, probe.index_id, (*leaf)->index_only, recipe.props,
                prices_);
            if (Rejects(l.cost + own, l.order())) continue;
            model_.ChargeIndexNLJoin(*l.plan, r2, probe.index_id,
                                     (*leaf)->index_only, recipe.props,
                                     usage_);
            recipe.probe = leaf;
            Offer(costs, l.order(), recipe);
          }
        }
      }
    }
  }

  const bool hash = edges != 0 && options_.enable_hash_join;
  const bool sort_merge = options_.enable_sort_merge_join && edges != 0;
  const bool block_nl = options_.enable_block_nl_join;
  const size_t nl = left_entries.size();
  const size_t nr = right_entries.size();
  const size_t num_edges = static_cast<size_t>(std::popcount(edges));
  const size_t per_pair = (hash ? 1 : 0) + (sort_merge ? num_edges : 0) +
                          (block_nl ? 1 : 0);
  if (per_pair == 0) return;

  // Every pair's candidates cost at least both inputs plus the join-output
  // CPU: if the frontier rejects that bound for every order the pairs
  // produce, the whole partition (or one outer's row) is skipped.
  const double output_price = model_.PriceJoinOutput(recipe.props, prices_);
  double min_left = std::numeric_limits<double>::infinity();
  double min_right = std::numeric_limits<double>::infinity();
  for (const Entry& l : left_entries) min_left = std::min(min_left, l.cost);
  for (const Entry& r : right_entries) min_right = std::min(min_right, r.cost);
  const auto rejects_pairs = [&](double bound) {
    if (!bound_first_) return false;
    if ((hash || block_nl) && !Rejects(bound, unordered_)) return false;
    if (sort_merge) {
      for (uint32_t rest = edges; rest != 0; rest &= rest - 1) {
        const int ei = std::countr_zero(rest);
        if (!Rejects(bound, prepared_.EdgeKey(ei, left_mask))) return false;
      }
    }
    return true;
  };
  if (rejects_pairs(min_left + min_right + output_price)) {
    counters_.priced += nl * nr * per_pair;
    return;
  }

  // A sort-merge input depends on (edge, entry) only: its cost (the
  // entry's, plus its sort unless already in key order) is set once per
  // partition, and its sort is charged only when a candidate that uses
  // it survives.
  const size_t slots = sort_merge ? (nl + nr) * num_edges : 0;
  sort_usage_.resize(std::max(sort_usage_.size(), slots));
  merge_cost_.resize(slots);
  sorted_.clear();
  sorted_.resize(slots);
  if (sort_merge) {
    size_t slot = 0;
    for (uint32_t rest = edges; rest != 0; rest &= rest - 1) {
      const int ei = std::countr_zero(rest);
      const std::vector<query::SortKey>& left_keys =
          prepared_.EdgeKey(ei, left_mask);
      const std::vector<query::SortKey>& right_keys =
          prepared_.EdgeKey(ei, right_mask);
      for (const Entry& l : left_entries) {
        merge_cost_[slot++] =
            OrderSatisfies(l.order(), left_keys) ? l.cost : l.sorted_cost;
      }
      for (const Entry& r : right_entries) {
        merge_cost_[slot++] =
            OrderSatisfies(r.order(), right_keys) ? r.cost : r.sorted_cost;
      }
    }
  }

  // Partitions without a connecting edge exist only where cross products
  // are allowed or needed, so block nested loops always applies.
  for (uint32_t li = 0; li < nl; ++li) {
    const Entry& l = left_entries[li];
    recipe.left = li;
    if (rejects_pairs(l.cost + min_right + output_price)) {
      counters_.priced += nr * per_pair;
      continue;
    }
    for (uint32_t ri = 0; ri < nr; ++ri) {
      const Entry& r = right_entries[ri];
      recipe.right = ri;
      counters_.priced += per_pair;
      if (hash) {
        const double own =
            model_.PriceHashJoinOwn(l, r, recipe.props, prices_);
        if (!Rejects(l.cost + r.cost + own, unordered_)) {
          recipe.op = OpType::kHashJoin;
          recipe.props.edge = first_edge;
          model_.ChargeHashJoin(*l.plan, *r.plan, recipe.props, usage_);
          Offer(costs, unordered_, recipe);
        }
      }
      if (sort_merge) {
        // The merge's own price does not depend on the edge.
        const double own =
            model_.PriceSortMergeJoinOwn(l, r, recipe.props, prices_);
        size_t j = 0;
        for (uint32_t rest = edges; rest != 0; rest &= rest - 1, ++j) {
          const int ei = std::countr_zero(rest);
          const size_t left_slot = j * (nl + nr) + li;
          const size_t right_slot = j * (nl + nr) + nl + ri;
          const std::vector<query::SortKey>& left_keys =
              prepared_.EdgeKey(ei, left_mask);
          // The merge emits the left key's order.
          if (Rejects(merge_cost_[left_slot] + merge_cost_[right_slot] + own,
                      left_keys)) {
            continue;
          }
          recipe.op = OpType::kSortMergeJoin;
          recipe.props.edge = ei;
          recipe.left_keys = &left_keys;
          recipe.right_keys = &prepared_.EdgeKey(ei, right_mask);
          model_.ChargeSortMergeJoin(
              MergeInput(left_slot, l, left_keys),
              MergeInput(right_slot, r, *recipe.right_keys), recipe.props,
              usage_);
          Offer(costs, left_keys, recipe);
        }
      }
      if (block_nl) {
        const double own =
            model_.PriceBlockNLJoinOwn(l, r, recipe.props, prices_);
        if (!Rejects(l.cost + r.cost + own, unordered_)) {
          recipe.op = OpType::kBlockNLJoin;
          recipe.props.edge = first_edge;
          model_.ChargeBlockNLJoin(*l.plan, *r.plan, recipe.props, usage_);
          Offer(costs, unordered_, recipe);
        }
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
  prices_ = model_.Prices(costs);
  // The estimates bound exact costs from below only when no term can be
  // negative; otherwise every candidate is charged.
  bound_first_ = std::all_of(costs.begin(), costs.end(), [](double c) {
    return std::isfinite(c) && c >= 0.0;
  });

  // Base access paths.
  for (size_t r = 0; r < n; ++r) {
    for (const PlanNodePtr& path : prepared_.AccessPaths(r)) {
      AddEntry(dp_[size_t{1} << r],
               MakeEntry(path, core::TotalCost(path->usage, costs)), cap);
    }
  }

  // Joins, subset by subset: offer every candidate to the frontier, then
  // build the survivors, in frontier order.
  for (const uint32_t mask : prepared_.JoinSubsets()) {
    CostModel::JoinProps props;
    props.output_rows = prepared_.SubsetRows(mask);
    props.output_width_bytes = prepared_.SubsetWidth(mask);
    frontier_.clear();
    frontier_min_.clear();
    frontier_max_ = 0.0;
    for (const PreparedSpace::Partition& partition :
         prepared_.Partitions(mask)) {
      const uint32_t right_mask = mask ^ partition.left;
      if (dp_[partition.left].empty() || dp_[right_mask].empty()) continue;
      EmitJoins(costs, partition, right_mask, props);
    }
    std::vector<Entry>& entries = dp_[mask];
    for (const Candidate& c : frontier_) {
      entries.push_back(MakeEntry(Build(c.recipe, mask), c.cost));
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
      AddEntry(finals, MakeEntry(std::move(finished), cost), cap);
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
