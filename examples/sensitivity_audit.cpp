// Sensitivity audit: how exposed is one query to storage-cost estimation
// error under a given layout? Runs the paper's full per-query analysis —
// candidate-plan discovery, complementarity census, worst-case GTC curve
// and the applicable theoretical bound.
//
//   $ ./sensitivity_audit [query 1..22] [shared|separate|colocated]
//   $ ./sensitivity_audit 20 separate
//
// The analysis pool is sized by the engine config (COSTSENSE_THREADS);
// stdout is the same at every thread count.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "core/bounds.h"
#include "engine/engine.h"
#include "exp/figure_runner.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

int main(int argc, char** argv) {
  using namespace costsense;
  const int qn = argc > 1 ? std::atoi(argv[1]) : 20;
  storage::LayoutPolicy policy = storage::LayoutPolicy::kPerTableAndIndex;
  if (argc > 2) {
    if (std::strcmp(argv[2], "shared") == 0) {
      policy = storage::LayoutPolicy::kSharedDevice;
    } else if (std::strcmp(argv[2], "colocated") == 0) {
      policy = storage::LayoutPolicy::kPerTableColocated;
    }
  }
  if (qn < 1 || qn > 22) {
    std::fprintf(stderr, "query number must be 1..22\n");
    return 1;
  }

  Result<engine::EngineConfig> config = engine::EngineConfig::FromEnv();
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  const Result<engine::Engine> eng =
      engine::Engine::Create(std::move(*config));
  if (!eng.ok()) {
    std::fprintf(stderr, "%s\n", eng.status().ToString().c_str());
    return 2;
  }

  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  const query::Query q = tpch::MakeTpchQuery(cat, qn);

  exp::FigureRunner::Options options;
  options.deltas = {2, 5, 10, 100, 1000, 10000};
  const exp::FigureRunner runner(cat, options);

  std::printf("auditing %s under the '%s' layout...\n", q.name.c_str(),
              storage::LayoutPolicyName(policy));
  const auto analysis = runner.Analyze(q, policy);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s\n", analysis.status().ToString().c_str());
    return 1;
  }
  // Distinct probed cost vectors, not optimizer calls: two workers that
  // miss on the same key at once both call the optimizer, so the call
  // count varies from run to run while the cache's key set does not.
  std::printf("resources: %zu   candidate optimal plans: %zu   distinct "
              "cost vectors probed: %zu\n",
              analysis->dims, analysis->candidate_plans.size(),
              analysis->cache_entries);
  std::printf("initial plan (at DB2-default costs):\n  %s\n",
              analysis->initial_plan_id.c_str());

  const core::ComplementarityReport census = runner.Complementarity(*analysis);
  std::printf("\nplan-pair census: %zu pairs, %zu complementary "
              "(access-path %zu, temp %zu, table %zu)\n",
              census.num_pairs, census.num_complementary,
              census.num_access_path, census.num_temp, census.num_table);

  const double bound =
      core::WorstCaseConstantBound(analysis->candidate_plans);
  if (std::isinf(bound)) {
    std::printf("complementary plans exist: worst case grows like delta^2 "
                "(Theorem 1)\n");
  } else {
    std::printf("no complementary plans: worst case capped at %s for ANY "
                "cost error (Theorem 2)\n",
                FormatDouble(bound).c_str());
  }

  const auto series = runner.GtcSeries(*analysis);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%-10s %-14s %s\n", "delta", "worst GTC", "driven by");
  for (const exp::GtcPoint& p : series->points) {
    std::printf("%-10s %-14s %.60s\n", FormatDouble(p.delta).c_str(),
                FormatDouble(p.gtc).c_str(), p.worst_rival.c_str());
  }
  return 0;
}
