// Integration tests of the experiment harness: these assert the *shape*
// results the paper reports, on a subset of queries at full SF-100 scale.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/discovery.h"
#include "exp/figure_runner.h"
#include "exp/query_context.h"
#include "exp/report.h"
#include "runtime/thread_pool.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::exp {
namespace {

const catalog::Catalog& Cat() {
  static const catalog::Catalog* cat =
      new catalog::Catalog(tpch::MakeTpchCatalog(100.0));
  return *cat;
}

FigureRunner::Options LightOptions() {
  FigureRunner::Options o;
  o.deltas = {2, 10, 100, 1000};
  o.discovery.random_samples = 16;
  o.discovery.sampled_vertices = 32;
  o.discovery.bisection_depth = 3;
  o.discovery.completeness_rounds = 1;
  return o;
}

TEST(FigureRunnerTest, SharedDeviceCurvesAreConstantBounded) {
  // Paper Figure 5 shape: on one device there are no complementary plans
  // and worst-case GTC approaches a constant (Theorem 2 regime).
  const FigureRunner runner(Cat(), LightOptions());
  for (int qn : {1, 11, 19, 20}) {
    const query::Query q = tpch::MakeTpchQuery(Cat(), qn);
    const auto analysis =
        runner.Analyze(q, storage::LayoutPolicy::kSharedDevice);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const auto series = runner.GtcSeries(*analysis);
    ASSERT_TRUE(series.ok());
    EXPECT_FALSE(series->has_complementary_plans) << q.name;
    EXPECT_TRUE(std::isfinite(series->constant_bound)) << q.name;
    for (const GtcPoint& p : series->points) {
      EXPECT_LE(p.gtc, series->constant_bound * (1 + 1e-6))
          << q.name << " at delta " << p.delta;
      EXPECT_GE(p.gtc, 1.0 - 1e-9);
    }
  }
}

TEST(FigureRunnerTest, SeparateDevicesGoQuadratic) {
  // Paper Figure 6 shape: with tables and indexes on separate devices,
  // complementary plans appear and worst-case GTC grows ~delta^2 while
  // respecting the Theorem 1 bound.
  const FigureRunner runner(Cat(), LightOptions());
  const query::Query q = tpch::MakeTpchQuery(Cat(), 19);
  const auto analysis =
      runner.Analyze(q, storage::LayoutPolicy::kPerTableAndIndex);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const auto series = runner.GtcSeries(*analysis);
  ASSERT_TRUE(series.ok());
  EXPECT_TRUE(series->has_complementary_plans);
  const auto& pts = series->points;
  // Quadratic regime between delta=10 and delta=1000: GTC scales by
  // ~(delta ratio)^2 once complementary rivals dominate.
  const double growth = pts[3].gtc / pts[1].gtc;  // delta 1000 vs 10
  EXPECT_GT(growth, 1e3);
  // Theorem 1: never exceeds delta^2 above the baseline GTC of 1.
  for (const GtcPoint& p : pts) {
    EXPECT_LE(p.gtc, p.delta * p.delta * (1 + 1e-6));
  }
}

TEST(FigureRunnerTest, MonotoneInDelta) {
  const FigureRunner runner(Cat(), LightOptions());
  for (auto policy : {storage::LayoutPolicy::kSharedDevice,
                      storage::LayoutPolicy::kPerTableColocated}) {
    const query::Query q = tpch::MakeTpchQuery(Cat(), 8);
    const auto analysis = runner.Analyze(q, policy);
    ASSERT_TRUE(analysis.ok());
    const auto series = runner.GtcSeries(*analysis);
    ASSERT_TRUE(series.ok());
    double prev = 1.0;
    for (const GtcPoint& p : series->points) {
      EXPECT_GE(p.gtc, prev * (1 - 1e-9));  // wider box can't shrink GTC
      prev = p.gtc;
    }
  }
}

TEST(FigureRunnerTest, ComplementarityCensusMatchesPaperShape) {
  // Paper Section 8.2: separated layout shows access-path (not table)
  // complementarity; colocated layout eliminates the access-path kind.
  const FigureRunner runner(Cat(), LightOptions());
  const query::Query q = tpch::MakeTpchQuery(Cat(), 11);

  const auto sep =
      runner.Analyze(q, storage::LayoutPolicy::kPerTableAndIndex);
  ASSERT_TRUE(sep.ok());
  const core::ComplementarityReport sep_report = runner.Complementarity(*sep);
  EXPECT_GT(sep_report.num_access_path, 0u);
  EXPECT_EQ(sep_report.num_table, 0u);

  const auto colo =
      runner.Analyze(q, storage::LayoutPolicy::kPerTableColocated);
  ASSERT_TRUE(colo.ok());
  const core::ComplementarityReport colo_report =
      runner.Complementarity(*colo);
  EXPECT_EQ(colo_report.num_access_path, 0u);
  EXPECT_EQ(colo_report.num_table, 0u);
}

TEST(FigureRunnerTest, InitialPlanIsAmongCandidates) {
  const FigureRunner runner(Cat(), LightOptions());
  const query::Query q = tpch::MakeTpchQuery(Cat(), 3);
  const auto analysis =
      runner.Analyze(q, storage::LayoutPolicy::kSharedDevice);
  ASSERT_TRUE(analysis.ok());
  bool found = false;
  for (const core::PlanUsage& p : analysis->candidate_plans) {
    if (p.plan_id == analysis->initial_plan_id) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(analysis->dims, 3u);
  EXPECT_EQ(analysis->dim_info.size(), 3u);
}

TEST(FigureRunnerTest, ColdWhiteBoxRunReportsCacheEntries) {
  // Every miss inserts one entry (quantized keys can collide, and a
  // bounded cache evicts), so a cold run holds at least one entry and no
  // more than it missed.
  const FigureRunner runner(Cat(), LightOptions());
  const query::Query q = tpch::MakeTpchQuery(Cat(), 11);
  const auto analysis =
      runner.Analyze(q, storage::LayoutPolicy::kSharedDevice);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->cache_imported, 0u);
  EXPECT_GT(analysis->cache_entries, 0u);
  EXPECT_LE(analysis->cache_entries, analysis->cache_misses);
}

/// Forwards every probe to `base` and keeps the cost vectors it was
/// asked about, in order.
class RecordingOracle : public core::PlanOracle {
 public:
  explicit RecordingOracle(core::PlanOracle& base) : base_(base) {}

  core::OracleResult Optimize(const core::CostVector& c) override {
    probes_.push_back(c);
    return base_.Optimize(c);
  }
  size_t dims() const override { return base_.dims(); }
  const std::vector<core::CostVector>& probes() const { return probes_; }

 private:
  core::PlanOracle& base_;
  std::vector<core::CostVector> probes_;
};

TEST(DiscoveryTest, EveryProbeLiesInTheFeasibleBox) {
  // Discovery probes, among others, the LP witness of each plan's region
  // of influence; every probe must be a cost vector in the box, or the
  // plans found there are not candidates for it. Both runs are the ones
  // that probed outside when the solver reported a witness coordinate
  // below zero: Q20 over the delta = 1e4 band (the sensitivity_audit
  // example) and quick fig6's Q8 over the delta = 1000 band, both under
  // the per-table-and-index layout, through the figure's cache and seed.
  struct Case {
    int query;
    double delta;
    core::DiscoveryOptions discovery;
  };
  const Case cases[] = {{20, 1e4, FigureRunner::Options().discovery},
                        {8, 1000.0, QuickDiscoveryOptions()}};
  for (const Case& c : cases) {
    const query::Query q = tpch::MakeTpchQuery(Cat(), c.query);
    const Result<std::unique_ptr<QueryContext>> ctx = QueryContext::Create(
        Cat(), q, storage::LayoutPolicy::kPerTableAndIndex,
        /*white_box=*/true, {}, nullptr);
    ASSERT_TRUE(ctx.ok()) << q.name;
    RecordingOracle recorder((*ctx)->stack.cache());
    const core::Box box =
        core::Box::MultiplicativeBand((*ctx)->baseline, c.delta);
    Rng rng(FigureRunner::Options().seed);
    const Result<core::DiscoveryResult> d =
        core::DiscoverCandidatePlans(recorder, box, rng, c.discovery);
    ASSERT_TRUE(d.ok()) << q.name;
    size_t outside = 0;
    for (const core::CostVector& probe : recorder.probes()) {
      if (!box.Contains(probe)) ++outside;
    }
    EXPECT_GT(recorder.probes().size(), 100u) << q.name;
    EXPECT_EQ(outside, 0u) << q.name << " probed outside the box "
                           << outside << " of " << recorder.probes().size()
                           << " times";
  }
}

TEST(QueryContextTest, NarrowAndWhiteBoxContextsAgreeOnTheInitialPlan) {
  // The narrow context reads its initial plan through NarrowOptimizer's
  // EXPLAIN on the oracle's own prepared plan space; the white-box context
  // reads it through the cache. Both must name the same plan and usage,
  // and the narrow context's only counted optimizer call is the cache
  // warm-up probe.
  for (const int qn : {3, 8}) {
    for (const storage::LayoutPolicy policy :
         {storage::LayoutPolicy::kSharedDevice,
          storage::LayoutPolicy::kPerTableAndIndex,
          storage::LayoutPolicy::kPerTableColocated}) {
      const query::Query q = tpch::MakeTpchQuery(Cat(), qn);
      const std::string what =
          q.name + " under " + storage::LayoutPolicyName(policy);
      const Result<std::unique_ptr<QueryContext>> white = QueryContext::Create(
          Cat(), q, policy, /*white_box=*/true, {}, nullptr);
      const Result<std::unique_ptr<QueryContext>> narrow = QueryContext::Create(
          Cat(), q, policy, /*white_box=*/false, {}, nullptr);
      ASSERT_TRUE(white.ok()) << what;
      ASSERT_TRUE(narrow.ok()) << what;
      EXPECT_EQ((*narrow)->initial_plan_id, (*white)->initial_plan_id) << what;
      EXPECT_EQ((*narrow)->initial_usage, (*white)->initial_usage) << what;
      EXPECT_EQ((*narrow)->narrow.calls(), 1u) << what;
      const runtime::OracleCacheStats stats = (*narrow)->stack.cache().stats();
      EXPECT_EQ(stats.misses, 1u) << what;
      EXPECT_EQ(stats.hits, 0u) << what;
    }
  }
}

TEST(FigureServeAgreementTest, GtcSeriesRequestMatchesFigureRunner) {
  // The figure drivers and the serve gtcseries request compute the same
  // worst-case curve through one QueryContext and one curve loop: on every
  // quick (query, layout) pair the server's body must carry the figure's
  // plan count, initial plan and every delta/gtc/rival value, byte for
  // byte as the server formats them.
  runtime::ThreadPool pool(3);
  FigureRunner::Options options;
  options.deltas = {2, 10, 100, 1000};
  options.discovery = QuickDiscoveryOptions();
  options.pool = &pool;
  const FigureRunner runner(Cat(), options);

  serve::DispatcherOptions serve_options;
  serve_options.discovery = QuickDiscoveryOptions();
  serve_options.pool = &pool;
  serve::Dispatcher dispatcher(serve_options);

  std::vector<query::Query> queries;
  for (int qn : QuickQueryNumbers()) {
    queries.push_back(tpch::MakeTpchQuery(Cat(), qn));
  }
  size_t pairs = 0;
  for (const storage::LayoutPolicy policy :
       {storage::LayoutPolicy::kSharedDevice,
        storage::LayoutPolicy::kPerTableAndIndex,
        storage::LayoutPolicy::kPerTableColocated}) {
    const std::vector<Result<QueryAnalysis>> analyses =
        runner.AnalyzeMany(queries, policy);
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string what = queries[i].name + " under " +
                               storage::LayoutPolicyName(policy);
      ASSERT_TRUE(analyses[i].ok()) << what;
      const Result<FigureSeries> series = runner.GtcSeries(*analyses[i]);
      ASSERT_TRUE(series.ok()) << what;

      serve::AnalysisRequest request;
      request.kind = serve::AnalysisKind::kGtcSeries;
      request.policy = policy;
      request.query_number =
          static_cast<uint16_t>(QuickQueryNumbers()[i]);
      request.deltas = options.deltas;
      const serve::AnalysisResponse response = dispatcher.Handle(request);
      ASSERT_TRUE(response.ok()) << what << ": " << response.body;

      // Every compared line sits between two newlines: the body opens
      // with its "costsense-serve" stamp and ends each line with '\n'.
      const auto has_line = [&response](const std::string& line) {
        return response.body.find("\n" + line + "\n") != std::string::npos;
      };
      EXPECT_TRUE(has_line("initial_plan=" + analyses[i]->initial_plan_id))
          << what;
      EXPECT_TRUE(has_line(StrFormat(
          "plans=%zu complete=%d", analyses[i]->candidate_plans.size(),
          analyses[i]->discovery_complete ? 1 : 0)))
          << what;
      ASSERT_EQ(series->points.size(), options.deltas.size()) << what;
      for (const GtcPoint& p : series->points) {
        EXPECT_TRUE(has_line(StrFormat(
            "delta=%s gtc=%s rival=%s", FormatDouble(p.delta).c_str(),
            FormatDouble(p.gtc).c_str(), p.worst_rival.c_str())))
            << what << " at delta " << p.delta << ":\n"
            << response.body;
      }
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 18u);
}

TEST(ReportTest, TablesRender) {
  FigureSeries s;
  s.query_name = "Q1";
  s.num_candidate_plans = 2;
  s.constant_bound = 3.5;
  s.points = {{2, 1.0, "x"}, {10, 2.5, "y"}};
  const std::string table = RenderFigureTable("title", {s});
  EXPECT_NE(table.find("title"), std::string::npos);
  EXPECT_NE(table.find("Q1"), std::string::npos);
  EXPECT_NE(table.find("2.5"), std::string::npos);
  const std::string csv = RenderFigureCsv({s});
  EXPECT_NE(csv.find("Q1,10,2.5,\"y\""), std::string::npos);
}

TEST(ReportTest, QuickQueryNumbersArePaperHighlights) {
  // Quick mode itself lives in engine::EngineConfig now; report only
  // exposes the highlighted query subset.
  EXPECT_EQ(QuickQueryNumbers(), (std::vector<int>{1, 8, 11, 16, 19, 20}));
}

}  // namespace
}  // namespace costsense::exp
