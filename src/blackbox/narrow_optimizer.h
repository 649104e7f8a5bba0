#ifndef COSTSENSE_BLACKBOX_NARROW_OPTIMIZER_H_
#define COSTSENSE_BLACKBOX_NARROW_OPTIMIZER_H_

#include <atomic>
#include <memory>

#include "common/status.h"
#include "core/oracle.h"
#include "opt/optimizer.h"
#include "query/query.h"

namespace costsense::blackbox {

/// Adapts (optimizer, query) to the PlanOracle interface the sensitivity
/// algorithms consume. In narrow mode it reveals only the chosen plan's
/// identity and estimated total cost — the "limitations of commercial
/// optimizers" the paper works around with least-squares extraction
/// (Section 6.1.1). White-box mode additionally exposes the usage vector,
/// which the paper could not do with DB2; it exists to validate the
/// extraction and to accelerate the figure sweeps.
class NarrowOptimizer : public core::PlanOracle {
 public:
  /// Neither the optimizer nor the query is owned; both must outlive this.
  /// Prepares the query's plan space once, for every later call.
  NarrowOptimizer(const opt::Optimizer& optimizer, const query::Query& query,
                  bool white_box = false);

  core::OracleResult Optimize(const core::CostVector& c) override;
  size_t dims() const override;

  /// The plan the optimizer picks at `c`, in full — the DBA's EXPLAIN,
  /// which reveals the plan even where Optimize() hides its usage. Runs
  /// on the same prepared plan space as Optimize() but is not an oracle
  /// call: calls() does not count it.
  [[nodiscard]] Result<opt::Optimized> Explain(
      const core::CostVector& c) const;

  /// Number of optimization calls made so far (the paper's experiments are
  /// budgeted in optimizer invocations). The counter is atomic, and
  /// Optimize() touches no other mutable state (the prepared plan space is
  /// read-only), so one NarrowOptimizer may be shared by concurrent probes
  /// (e.g. behind runtime::CachingOracle).
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  const opt::Optimizer& optimizer_;
  const Result<std::unique_ptr<const opt::PreparedSpace>> prepared_;
  bool white_box_;
  std::atomic<size_t> calls_{0};
};

}  // namespace costsense::blackbox

#endif  // COSTSENSE_BLACKBOX_NARROW_OPTIMIZER_H_
