#ifndef COSTSENSE_OPT_JOIN_ENUM_H_
#define COSTSENSE_OPT_JOIN_ENUM_H_

#include <cstdint>
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
/// concurrent enumerators may share. Join candidates are priced in scratch
/// space through the cost model's charge functions and offered to a
/// per-subset frontier of (cost, order, recipe); plan nodes are built only
/// for the frontier's survivors once the subset is done.
class JoinEnumerator {
 public:
  /// What the enumeration did with join candidates, summed over every
  /// BestPlan call on this enumerator. Base access paths and the final
  /// aggregate/sort variants are not counted.
  struct Counters {
    /// Candidates whose usage vector and total cost were computed.
    size_t priced = 0;
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
  struct Entry {
    PlanNodePtr plan;
    double cost = 0.0;
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

  /// A priced join candidate of the subset being enumerated. `keys`
  /// points at the order its node would have (an input's order, a
  /// prepared edge key, or the empty order), which outlives the subset.
  struct Candidate {
    double cost = 0.0;
    const std::vector<query::SortKey>* keys = nullptr;
    Recipe recipe;
    const std::vector<query::SortKey>& order() const { return *keys; }
  };

  /// Offers every physical join of (dp[left_mask], dp[right_mask]) over
  /// `partition`'s connecting edges to frontier_. `props` carries the
  /// subset's rows and width.
  void EmitJoins(const core::CostVector& costs,
                 const PreparedSpace::Partition& partition,
                 uint32_t right_mask, const CostModel::JoinProps& props);

  /// Offers the candidate charged into usage_ to frontier_ unless a
  /// frontier entry dominates it.
  void Offer(const core::CostVector& costs,
             const std::vector<query::SortKey>& order, const Recipe& recipe);

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

  // Scratch space reused across candidates and partitions: the
  // candidate's usage, and the sorted inputs per (edge, entry) with their
  // usage.
  core::UsageVector usage_;
  std::vector<core::UsageVector> sort_usage_;
  std::vector<CostModel::Input> left_sorted_;
  std::vector<CostModel::Input> right_sorted_;
  const std::vector<query::SortKey> unordered_;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_JOIN_ENUM_H_
