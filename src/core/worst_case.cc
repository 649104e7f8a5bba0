#include "core/worst_case.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "core/relative_cost.h"
#include "lp/fractional.h"
#include "runtime/thread_pool.h"

namespace costsense::core {
namespace {

/// Best-so-far slot for one chunk of a vertex sweep.
struct ChunkBest {
  double gtc = 1.0;
  uint64_t mask = 0;
  std::string rival;
  bool any = false;
  size_t degenerate = 0;
};

/// The serial sweep's selection rule, made order-free: a strictly larger
/// gtc wins, and exact ties resolve to the lowest vertex *mask* (not visit
/// order). An ascending-mask scan's first-strictly-greater rule picks
/// exactly this winner, so chunked and pooled sweeps reproduce the serial
/// result byte for byte.
bool BeatsIncumbent(const ChunkBest& b, double gtc, uint64_t mask) {
  if (!b.any) return true;
  if (gtc != b.gtc) return gtc > b.gtc;
  return mask < b.mask;
}

/// Splits [0, vertices) into contiguous chunks sized for the pool. With
/// the mask tie-break above the merge is order-free, but chunks are still
/// merged in ascending order for a deterministic degenerate-count sum.
std::vector<std::pair<uint64_t, uint64_t>> VertexChunks(
    uint64_t vertices, runtime::ThreadPool* pool) {
  const uint64_t want =
      pool == nullptr ? 1 : std::max<uint64_t>(1, 8 * pool->num_threads());
  const uint64_t chunks = std::min<uint64_t>(vertices, want);
  const uint64_t per = (vertices + chunks - 1) / chunks;
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t lo = 0; lo < vertices; lo += per) {
    out.emplace_back(lo, std::min(vertices, lo + per));
  }
  return out;
}

/// Warns the first time any sweep in this process skips degenerate
/// vertices; per-call counts are surfaced in WorstCaseResult.
void WarnDegenerateOnce(size_t skipped) {
  if (skipped == 0) return;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "costsense: worst-case vertex sweep skipped %zu degenerate "
                 "vertices (non-positive optimal cost); the reported maximum "
                 "covers the remaining vertices\n",
                 skipped);
  }
}

/// Merges per-chunk bests into the final result. Matches the serial rule:
/// the result only moves off its gtc=1.0 default for a strictly larger
/// value, and equal-gtc chunks resolve to the lowest vertex mask.
WorstCaseResult MergeChunks(const Box& box,
                            const std::vector<ChunkBest>& best) {
  WorstCaseResult out;
  out.worst_costs = box.Center();
  bool have = false;
  uint64_t best_mask = 0;
  for (const ChunkBest& b : best) {
    out.degenerate_vertices += b.degenerate;
    if (!b.any) continue;
    const bool better =
        b.gtc > out.gtc || (have && b.gtc == out.gtc && b.mask < best_mask);
    if (better) {
      out.gtc = b.gtc;
      best_mask = b.mask;
      out.worst_rival = b.rival;
      have = true;
    }
  }
  if (have) box.VertexInto(best_mask, out.worst_costs);
  WarnDegenerateOnce(out.degenerate_vertices);
  return out;
}

/// Oracle sweep over one chunk in ascending mask order. The scratch vertex
/// is rewritten in place — no per-vertex allocation.
ChunkBest OracleChunk(PlanOracle& oracle, const UsageVector& initial,
                      const Box& box, uint64_t lo, uint64_t hi) {
  ChunkBest b;
  CostVector v(box.dims());
  for (uint64_t mask = lo; mask < hi; ++mask) {
    box.VertexInto(mask, v);
    const OracleResult r = oracle.Optimize(v);
    if (r.total_cost <= 0.0) {
      ++b.degenerate;
      continue;
    }
    const double gtc = TotalCost(initial, v) / r.total_cost;
    if (BeatsIncumbent(b, gtc, mask)) {
      b.gtc = gtc;
      b.mask = mask;
      b.rival = r.plan_id;
      b.any = true;
    }
  }
  return b;
}

/// Plan-set sweep over one chunk in ascending mask order, with the optimum
/// at each vertex from OptimalPlanIndex (lowest plan index on cost ties).
/// The scratch vertex is rewritten in place. `plans` must be non-empty.
ChunkBest PlansChunk(const UsageVector& initial,
                     const std::vector<PlanUsage>& plans, const Box& box,
                     uint64_t lo, uint64_t hi) {
  ChunkBest b;
  CostVector v(box.dims());
  for (uint64_t mask = lo; mask < hi; ++mask) {
    box.VertexInto(mask, v);
    const size_t ci = OptimalPlanIndex(plans, v);
    const double cheapest = TotalCost(plans[ci].usage, v);
    if (cheapest <= 0.0) {
      ++b.degenerate;
      continue;
    }
    const double gtc = TotalCost(initial, v) / cheapest;
    if (BeatsIncumbent(b, gtc, mask)) {
      b.gtc = gtc;
      b.mask = mask;
      b.rival = plans[ci].plan_id;
      b.any = true;
    }
  }
  return b;
}

}  // namespace

Result<WorstCaseResult> WorstCaseByVertexSweep(PlanOracle& oracle,
                                               const UsageVector& initial_usage,
                                               const Box& box, size_t max_dims,
                                               runtime::ThreadPool* pool) {
  if (box.dims() != initial_usage.size()) {
    return Status::InvalidArgument("usage vector dims do not match box");
  }
  if (box.dims() > max_dims) {
    return Status::FailedPrecondition(StrFormat(
        "vertex sweep over %zu dims needs 2^%zu oracle calls; use the LP "
        "method instead",
        box.dims(), box.dims()));
  }
  const uint64_t vertices = box.VertexCount();
  const auto chunks = VertexChunks(vertices, pool);
  std::vector<ChunkBest> best(chunks.size());
  const Status pool_status =
      runtime::ForEachIndex(pool, chunks.size(), [&](size_t k) {
    best[k] = OracleChunk(oracle, initial_usage, box, chunks[k].first,
                          chunks[k].second);
    return Status::Ok();
  });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
  return MergeChunks(box, best);
}

WorstCaseResult WorstCaseOverPlansByVertices(const UsageVector& initial_usage,
                                             const std::vector<PlanUsage>& plans,
                                             const Box& box,
                                             runtime::ThreadPool* pool) {
  if (plans.empty()) {
    // An empty candidate set makes every vertex vacuous; keep the default
    // result.
    WorstCaseResult out;
    out.worst_costs = box.Center();
    return out;
  }
  const uint64_t vertices = box.VertexCount();
  const auto chunks = VertexChunks(vertices, pool);
  std::vector<ChunkBest> best(chunks.size());
  const Status pool_status =
      runtime::ForEachIndex(pool, chunks.size(), [&](size_t k) {
    best[k] = PlansChunk(initial_usage, plans, box, chunks[k].first,
                         chunks[k].second);
    return Status::Ok();
  });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
  return MergeChunks(box, best);
}

// GCC 12 falsely reports free-nonheap-object when the Result<T> variant's
// string destructor is inlined through optional::emplace at -O2 (the
// PR104392 family of std::string false positives); suppress locally so the
// tree stays -Werror-clean without weakening the flag globally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
Result<WorstCaseResult> WorstCaseOverPlansByLp(
    const UsageVector& initial_usage, const std::vector<PlanUsage>& plans,
    const Box& box, runtime::ThreadPool* pool) {
  // The per-rival fractional programs are independent: solve them all
  // (concurrently when pooled), then reduce in rival order so the winning
  // rival on ties matches the serial scan.
  std::vector<std::optional<Result<lp::FractionalSolution>>> sols(
      plans.size());
  const Status pool_status =
      runtime::ForEachIndex(pool, plans.size(), [&](size_t i) {
        Result<lp::FractionalSolution> sol = lp::MaximizeRatioOverBox(
            initial_usage, plans[i].usage, box.lower(), box.upper());
        sols[i].emplace(std::move(sol));
        return Status::Ok();
      });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok

  WorstCaseResult out;
  out.worst_costs = box.Center();
  for (size_t i = 0; i < plans.size(); ++i) {
    const Result<lp::FractionalSolution>& sol = *sols[i];
    if (!sol.ok()) return sol.status();
    if (sol->value > out.gtc) {
      // The ratio against one rival upper-bounds GTC only if that rival is
      // itself optimal at the maximizer; but the max over *all* rivals of
      // the max ratio equals the max over the box of cost/min-rival-cost,
      // so taking the overall maximum is exact.
      out.gtc = sol->value;
      out.worst_costs = sol->x;
      out.worst_rival = plans[i].plan_id;
    }
  }
  return out;
}
#pragma GCC diagnostic pop

}  // namespace costsense::core
