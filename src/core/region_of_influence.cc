#include "core/region_of_influence.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "lp/simplex.h"

namespace costsense::core {

Result<CandidacyResult> FindRegionWitness(const UsageVector& a,
                                          const std::vector<PlanUsage>& rivals,
                                          const Box& box) {
  const size_t n = box.dims();
  if (a.size() != n) {
    return Status::InvalidArgument("usage vector dims do not match box");
  }

  // Variables: w_0..w_{n-1} in [0, 1] (normalized position within the
  // box: C_i = lo_i + w_i * width_i) and s (the optimality margin).
  // Normalizing both the variables and each rival row keeps the tableau
  // well-conditioned despite usage/cost magnitudes spanning many orders.
  lp::Problem p;
  p.num_vars = n + 1;
  p.maximize = true;
  p.objective = linalg::Vector(n + 1);
  p.objective[n] = 1.0;

  const CostVector& lo = box.lower();
  const CostVector& hi = box.upper();
  const CostVector center = box.Center();

  // w_i <= 1
  for (size_t i = 0; i < n; ++i) {
    lp::Constraint con;
    con.coeffs = linalg::Vector(n + 1);
    con.coeffs[i] = 1.0;
    con.rel = lp::Relation::kLessEqual;
    con.rhs = 1.0;
    p.constraints.push_back(std::move(con));
  }
  // s <= 1 (keeps the LP bounded; the margin is normalized below).
  {
    lp::Constraint con;
    con.coeffs = linalg::Vector(n + 1);
    con.coeffs[n] = 1.0;
    con.rel = lp::Relation::kLessEqual;
    con.rhs = 1.0;
    p.constraints.push_back(std::move(con));
  }
  // For each rival b: (B - A).(lo + w*width) >= s * sigma, where sigma
  // scales the margin to the constraint's magnitude at the box center.
  for (const PlanUsage& rival : rivals) {
    if (rival.usage.size() != n) {
      return Status::InvalidArgument("rival usage dims do not match box");
    }
    linalg::Vector diff = rival.usage - a;
    if (diff.InfNorm() == 0.0) continue;  // identical usage: always a tie
    double sigma = 0.0;
    for (size_t i = 0; i < n; ++i) sigma += std::fabs(diff[i]) * center[i];
    COSTSENSE_CHECK(sigma > 0.0);

    lp::Constraint con;
    con.coeffs = linalg::Vector(n + 1);
    for (size_t i = 0; i < n; ++i) {
      con.coeffs[i] = diff[i] * (hi[i] - lo[i]) / sigma;
    }
    con.coeffs[n] = -1.0;
    con.rel = lp::Relation::kGreaterEqual;
    con.rhs = -linalg::Dot(diff, lo) / sigma;
    p.constraints.push_back(std::move(con));
  }

  const lp::Solution sol = lp::Solve(p);
  CandidacyResult out;
  if (sol.status != lp::SolveStatus::kOptimal) {
    out.candidate = false;  // infeasible even with zero margin
    return out;
  }
  out.candidate = true;
  out.margin = sol.x[n];
  out.witness = CostVector(n);
  // The solver can report an optimum with some w_i far below 0; clamping
  // keeps the witness, and every probe discovery makes at it, in the box.
  for (size_t i = 0; i < n; ++i) {
    const double w = std::clamp(sol.x[i], 0.0, 1.0);
    out.witness[i] = lo[i] + w * (hi[i] - lo[i]);
  }
  return out;
}

bool InRegionOfInfluence(const std::vector<PlanUsage>& plans, size_t index,
                         const CostVector& c, double rel_tol) {
  COSTSENSE_CHECK(index < plans.size());
  const double mine = TotalCost(plans[index].usage, c);
  for (size_t j = 0; j < plans.size(); ++j) {
    if (j == index) continue;
    const double theirs = TotalCost(plans[j].usage, c);
    if (mine > theirs * (1.0 + rel_tol)) return false;
  }
  return true;
}

}  // namespace costsense::core
