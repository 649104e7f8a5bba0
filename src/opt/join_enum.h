#ifndef COSTSENSE_OPT_JOIN_ENUM_H_
#define COSTSENSE_OPT_JOIN_ENUM_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/vectors.h"
#include "opt/cost_model.h"
#include "opt/plan.h"
#include "opt/prepared_space.h"

namespace costsense::opt {

/// System-R-style dynamic-programming join enumerator over table subsets,
/// with interesting orders and (optionally) bushy trees — the plan space
/// the paper attributes to the DB2 optimizer (Section 7.1). Pruning is by
/// estimated total cost U . C under the cost vector supplied to BestPlan,
/// so re-running with different cost vectors reproduces the paper's
/// methodology of re-invoking the optimizer per cost setting.
///
/// Everything that does not depend on C comes from a PreparedSpace, which
/// concurrent enumerators may share. Each join candidate is first priced
/// as a scalar: its inputs' costs plus its own price under C (the cost
/// model's price functions). A candidate the per-subset frontier would
/// reject anyway is dropped there, without a usage vector; the rest are
/// charged exactly through the charge functions and offered to the
/// frontier of (cost, order, recipe). Plan nodes are built only for the
/// frontier's survivors once the subset is done. Plans, costs and usage
/// are exactly those of charging every candidate (DESIGN.md §5j).
class JoinEnumerator {
 public:
  /// What the enumeration did with join candidates, summed over every
  /// BestPlan call on this enumerator. Base access paths and the final
  /// aggregate/sort variants are not counted.
  struct Counters {
    /// Join candidates considered, including those a bound on a whole row
    /// or partition of candidates skipped.
    size_t priced = 0;
    /// Candidates charged exactly: usage vector and total cost computed
    /// and offered to the frontier.
    size_t charged = 0;
    /// Join nodes built: one per frontier survivor.
    size_t built = 0;
    /// Entries in the DP table when enumeration ended. Only survivors are
    /// built, so this equals `built`.
    size_t kept = 0;
  };

  /// `prepared` is not owned and must outlive the enumerator.
  explicit JoinEnumerator(const PreparedSpace& prepared);

  /// Returns the estimated optimal plan under `costs` (fully annotated,
  /// including its resource usage vector and canonical id).
  [[nodiscard]] Result<PlanNodePtr> BestPlan(const core::CostVector& costs);

  const Counters& counters() const { return counters_; }

 private:
  /// A DP table entry: its plan, with its cost and sizes as the price
  /// functions read them.
  struct Entry : CostModel::Priced {
    Entry(PlanNodePtr p, double total_cost, double sorted)
        : Priced(*p, total_cost), plan(std::move(p)), sorted_cost(sorted) {}

    PlanNodePtr plan;
    /// `cost` plus the price of sorting the plan's output: what it costs
    /// as a sort-merge input that is not in the key order.
    double sorted_cost = 0.0;
    const std::vector<query::SortKey>& order() const { return plan->order; }
  };

  /// How to build a priced join candidate once it survives: the method,
  /// its inputs as entry indexes into dp[left_mask] and dp[subset ^
  /// left_mask], its JoinProps, and the PROBE leaf (index nested loops) or
  /// the two sort keys (sort-merge).
  struct Recipe {
    OpType op = OpType::kHashJoin;
    uint32_t left_mask = 0;
    uint32_t left = 0;
    uint32_t right = 0;
    CostModel::JoinProps props;
    const PlanNodePtr* probe = nullptr;
    const std::vector<query::SortKey>* left_keys = nullptr;
    const std::vector<query::SortKey>* right_keys = nullptr;
  };

  /// A charged join candidate of the subset being enumerated. `keys`
  /// points at the order its node would have (an input's order, a
  /// prepared edge key, or the empty order), which outlives the subset.
  struct Candidate {
    double cost = 0.0;
    const std::vector<query::SortKey>* keys = nullptr;
    Recipe recipe;
    const std::vector<query::SortKey>& order() const { return *keys; }
  };

  /// The entry for `plan` at total cost `cost` under this call's prices.
  Entry MakeEntry(PlanNodePtr plan, double cost) const;

  /// Offers every physical join of (dp[left_mask], dp[right_mask]) over
  /// `partition`'s connecting edges to frontier_. `props` carries the
  /// subset's rows and width.
  void EmitJoins(const core::CostVector& costs,
                 const PreparedSpace::Partition& partition,
                 uint32_t right_mask, const CostModel::JoinProps& props);

  /// True if the frontier would reject every candidate of order `order`
  /// whose scalar estimate is at least `estimate`: an entry that
  /// satisfies the order costs no more than the estimate less its margin,
  /// or the frontier is full and every entry costs less than that. Never
  /// true unless bound_first_.
  bool Rejects(double estimate, const std::vector<query::SortKey>& order);

  /// The least cost of a frontier entry whose order satisfies `order`
  /// (+inf if none), cached per order until the frontier changes.
  double FrontierMin(const std::vector<query::SortKey>& order);

  /// Offers the candidate charged into usage_ to frontier_ unless a
  /// frontier entry dominates it.
  void Offer(const core::CostVector& costs,
             const std::vector<query::SortKey>& order, const Recipe& recipe);

  /// The sort-merge input that entry `e` presents in `keys` order, its
  /// sort charged into sort_usage_[slot] on first use.
  const CostModel::Input& MergeInput(size_t slot, const Entry& e,
                                     const std::vector<query::SortKey>& keys);

  /// Builds the node `recipe` describes for subset `mask`.
  PlanNodePtr Build(const Recipe& recipe, uint32_t mask) const;

  const PreparedSpace& prepared_;
  const CostModel& model_;
  const OptimizerOptions& options_;
  Counters counters_;
  /// The DP table: per table subset, its cost/order frontier.
  std::vector<std::vector<Entry>> dp_;
  /// The subset being enumerated, before its survivors are built.
  std::vector<Candidate> frontier_;

  // Per BestPlan call: the unit prices under its C, and whether candidates
  // may be rejected on their estimate (every coordinate of C finite and
  // non-negative).
  CostModel::UnitPrices prices_;
  bool bound_first_ = false;

  // Per frontier state: FrontierMin's cache, and the costliest entry's
  // cost; both reset whenever frontier_ changes.
  std::vector<std::pair<const std::vector<query::SortKey>*, double>>
      frontier_min_;
  double frontier_max_ = 0.0;

  // Scratch space reused across candidates and partitions: the
  // candidate's usage; per (edge, entry) slot of the partition, the input
  // cost as a sort-merge input and the sorted input once charged.
  core::UsageVector usage_;
  std::vector<core::UsageVector> sort_usage_;
  std::vector<double> merge_cost_;
  std::vector<std::optional<CostModel::Input>> sorted_;
  const std::vector<query::SortKey> unordered_;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_JOIN_ENUM_H_
