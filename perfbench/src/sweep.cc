// sweep_cold and sweep_narrow: the figure pipeline as the fig5/6/7 drivers
// run it in quick mode (FigureRunner::AnalyzeMany, then GtcSeries), timed
// from outside; and, for a traced run, the same analyses rebuilt from the
// library's entry points with timing decorators around the oracle cache.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "blackbox/narrow_optimizer.h"
#include "common/macros.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "opt/optimizer.h"
#include "runtime/oracle_stack.h"
#include "runtime/thread_pool.h"
#include "src/harness.h"
#include "src/probe.h"
#include "src/stats.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace perfbench {
namespace {

namespace cs = costsense;

struct Layout {
  cs::storage::LayoutPolicy policy;
  const char* title;
  /// Committed quick-mode expectation under tests/golden/expected/.
  const char* golden;
};

constexpr Layout kColdLayouts[] = {
    {cs::storage::LayoutPolicy::kSharedDevice,
     "Figure 5: worst-case GTC, all tables and indexes on one device",
     "fig5_shared_device"},
    {cs::storage::LayoutPolicy::kPerTableAndIndex,
     "Figure 6: worst-case GTC, tables and indexes on separate devices",
     "fig6_separate_devices"},
    {cs::storage::LayoutPolicy::kPerTableColocated,
     "Figure 7: worst-case GTC, one device per table with its indexes",
     "fig7_colocated"},
};

constexpr const char* kNarrowExpectation =
    "perfbench/expected/sweep_narrow_plans.txt";

/// One layout's results in canonical query order.
struct LayoutRun {
  std::vector<cs::Result<cs::exp::QueryAnalysis>> analyses;
  std::vector<std::optional<cs::Result<cs::exp::FigureSeries>>> series;
};

/// The figure drivers' own set-up (bench_util.cc MakeFigureBenchConfig:
/// catalog, quick query list, FigureRunner options) plus this run's pool.
struct SweepSetup {
  cs::bench::FigureBenchConfig bench;
  std::unique_ptr<cs::runtime::ThreadPool> pool;
};

class SweepWorkload {
 public:
  SweepWorkload(const RunArgs& args, bool narrow)
      : args_(args), narrow_(narrow), config_(MakeEngineConfig(args.threads)) {
    if (narrow_) {
      layouts_.push_back(kColdLayouts[2]);
    } else {
      layouts_.assign(std::begin(kColdLayouts), std::end(kColdLayouts));
    }
    // The seed orders the layouts, which run one after another. Queries
    // keep the figure drivers' order: AnalyzeMany runs them concurrently,
    // so their order decides when the slowest one starts and would make
    // the wall time a function of the seed.
    layout_order_ = SeededOrder(args.seed, 1, layouts_.size());
  }

  RunResult Run();

 private:
  /// Catalog, engine and pool creation; returns its wall time.
  double Setup();
  /// The drivers' FigureRunner options on `pool`, white- or black-box.
  cs::exp::FigureRunner::Options Options(cs::runtime::ThreadPool& pool) const;
  /// One untraced pass over every layout, as the figure drivers run it.
  std::vector<LayoutRun> RunUntraced(cs::runtime::ThreadPool& pool) const;
  /// The same pass rebuilt from entry points with the timing decorators.
  std::vector<LayoutRun> RunTraced(cs::runtime::ThreadPool& pool,
                                   LayerProbe& probe, double* series_ms,
                                   RunResult& result) const;
  cs::Result<cs::exp::QueryAnalysis> TracedAnalyze(
      const cs::query::Query& query, cs::storage::LayoutPolicy policy,
      const cs::exp::FigureRunner::Options& options, LayerProbe& probe) const;

  void CheckOutputs(const std::vector<LayoutRun>& runs,
                    RunResult& result) const;
  std::string RenderPlanIds(const std::vector<LayoutRun>& runs) const;
  static void CompareRuns(const std::vector<LayoutRun>& a,
                          const std::vector<LayoutRun>& b, RunResult& result);
  static bool AnalysisOk(const LayoutRun& run, size_t i);

  const RunArgs& args_;
  const bool narrow_;
  const cs::engine::EngineConfig config_;
  std::vector<Layout> layouts_;
  std::vector<size_t> layout_order_;
  std::optional<SweepSetup> setup_;
};

double SweepWorkload::Setup() {
  const int64_t begin = NowNs();
  cs::bench::FigureBenchConfig bench = cs::bench::MakeFigureBenchConfig(config_);
  cs::Result<cs::engine::Engine> engine = cs::engine::Engine::Create(config_);
  COSTSENSE_CHECK(engine.ok());
  auto pool = std::make_unique<cs::runtime::ThreadPool>(args_.threads);
  const double seconds = static_cast<double>(NowNs() - begin) / 1e9;
  // The previous set-up is torn down outside the timed span.
  setup_.emplace(SweepSetup{std::move(bench), std::move(pool)});
  return seconds;
}

cs::exp::FigureRunner::Options SweepWorkload::Options(
    cs::runtime::ThreadPool& pool) const {
  cs::exp::FigureRunner::Options options = setup_->bench.options;
  options.white_box = !narrow_;
  options.pool = &pool;
  return options;
}

std::vector<LayoutRun> SweepWorkload::RunUntraced(
    cs::runtime::ThreadPool& pool) const {
  const cs::exp::FigureRunner::Options options = Options(pool);
  const std::vector<cs::query::Query>& queries = setup_->bench.queries;
  std::vector<LayoutRun> runs(layouts_.size());
  for (size_t li : layout_order_) {
    const cs::exp::FigureRunner runner(setup_->bench.catalog, options);
    std::vector<cs::Result<cs::exp::QueryAnalysis>> analyses =
        runner.AnalyzeMany(queries, layouts_[li].policy);
    LayoutRun& run = runs[li];
    run.series.resize(queries.size());
    for (size_t j = 0; j < queries.size(); ++j) {
      if (analyses[j].ok()) {
        run.series[j].emplace(runner.GtcSeries(*analyses[j]));
      }
    }
    run.analyses = std::move(analyses);
  }
  return runs;
}

cs::Result<cs::exp::QueryAnalysis> SweepWorkload::TracedAnalyze(
    const cs::query::Query& query, cs::storage::LayoutPolicy policy,
    const cs::exp::FigureRunner::Options& options, LayerProbe& probe) const {
  // FigureRunner::Analyze's fault-free path, step for step, with the
  // timing decorators on both sides of the cache.
  const cs::catalog::Catalog& catalog = setup_->bench.catalog;
  const cs::storage::StorageLayout layout(policy, catalog,
                                          cs::query::ReferencedTables(query));
  const cs::storage::ResourceSpace space = layout.BuildResourceSpace();
  const cs::opt::Optimizer optimizer(catalog, layout, space);
  cs::blackbox::NarrowOptimizer narrow(optimizer, query, options.white_box);
  BelowCacheTimer below(narrow, probe);
  cs::runtime::OracleStackBuilder builder;
  builder.WithCache(options.cache);
  cs::runtime::OracleStack stack = builder.Build(below);

  cs::exp::QueryAnalysis out;
  out.query_name = query.name;
  out.policy = policy;
  out.dims = space.dims();
  out.baseline = space.BaselineCosts();
  out.dim_info = space.dim_info();
  cs::Result<cs::core::DiscoveryResult> d = cs::Status::Internal("not run");
  {
    AboveCacheTimer above(stack.cache(), probe);
    if (options.white_box) {
      const cs::core::OracleResult initial = above.Optimize(out.baseline);
      if (!initial.usage.has_value()) {
        return cs::Status::Internal("white-box oracle did not reveal usage");
      }
      out.initial_plan_id = initial.plan_id;
      out.initial_usage = *initial.usage;
    } else {
      const cs::Result<cs::opt::Optimized> initial =
          optimizer.Optimize(query, out.baseline);
      if (!initial.ok()) return initial.status();
      out.initial_plan_id = initial->plan->id;
      out.initial_usage = initial->plan->usage;
      above.Optimize(out.baseline);
    }
    const cs::core::Box box = cs::core::Box::MultiplicativeBand(
        out.baseline, options.deltas.back());
    cs::Rng rng(options.seed);
    cs::core::DiscoveryOptions discovery = options.discovery;
    discovery.pool = options.pool;
    d = TracedDiscover(above, box, rng, discovery, probe);
  }
  probe.AddCacheStats(stack.cache().stats());
  if (!d.ok()) return d.status();
  for (cs::core::DiscoveredPlan& dp : d->plans) {
    out.candidate_plans.push_back(std::move(dp.plan));
  }
  out.oracle_calls = narrow.calls();
  out.discovery_complete = d->complete;
  return out;
}

std::vector<LayoutRun> SweepWorkload::RunTraced(cs::runtime::ThreadPool& pool,
                                                LayerProbe& probe,
                                                double* series_ms,
                                                RunResult& result) const {
  const cs::exp::FigureRunner::Options options = Options(pool);
  const std::vector<cs::query::Query>& queries = setup_->bench.queries;
  std::vector<LayoutRun> runs(layouts_.size());
  for (size_t li : layout_order_) {
    const cs::storage::LayoutPolicy policy = layouts_[li].policy;
    const cs::exp::FigureRunner runner(setup_->bench.catalog, options);
    std::vector<cs::Result<cs::exp::QueryAnalysis>> analyses =
        pool.ParallelMap(queries, [&](size_t, const cs::query::Query& q) {
          return TracedAnalyze(q, policy, options, probe);
        });
    LayoutRun& run = runs[li];
    run.series.resize(queries.size());
    for (size_t j = 0; j < queries.size(); ++j) {
      if (analyses[j].ok()) {
        const int64_t begin = NowNs();
        cs::Result<cs::exp::FigureSeries> series =
            runner.GtcSeries(*analyses[j]);
        *series_ms += static_cast<double>(NowNs() - begin) / 1e6;
        // The LP layer on its own, per delta as GtcSeries runs it; it must
        // agree with the series exactly.
        for (size_t k = 0; series.ok() && k < options.deltas.size(); ++k) {
          const cs::Result<cs::core::WorstCaseResult> wc = TracedLp(
              analyses[j]->initial_usage, analyses[j]->candidate_plans,
              cs::core::Box::MultiplicativeBand(analyses[j]->baseline,
                                                options.deltas[k]),
              &pool, probe);
          if (!wc.ok() || wc->gtc != series->points[k].gtc ||
              wc->worst_rival != series->points[k].worst_rival) {
            result.Fail("traced LP disagrees with GtcSeries for " +
                        analyses[j]->query_name);
          }
        }
        run.series[j].emplace(std::move(series));
      }
    }
    run.analyses = std::move(analyses);
  }
  return runs;
}

bool SweepWorkload::AnalysisOk(const LayoutRun& run, size_t i) {
  return run.analyses[i].ok() && run.series[i].has_value() &&
         run.series[i]->ok();
}

std::string SweepWorkload::RenderPlanIds(
    const std::vector<LayoutRun>& runs) const {
  std::string out;
  for (size_t li = 0; li < runs.size(); ++li) {
    for (const auto& analysis : runs[li].analyses) {
      if (!analysis.ok()) continue;
      std::set<std::string> ids;
      for (const auto& p : analysis->candidate_plans) ids.insert(p.plan_id);
      for (const std::string& id : ids) {
        out += cs::StrFormat("%s %s %s\n",
                             cs::storage::LayoutPolicyName(layouts_[li].policy),
                             analysis->query_name.c_str(), id.c_str());
      }
    }
  }
  return out;
}

void SweepWorkload::CheckOutputs(const std::vector<LayoutRun>& runs,
                                 RunResult& result) const {
  for (size_t li = 0; li < runs.size(); ++li) {
    const LayoutRun& run = runs[li];
    std::vector<cs::exp::FigureSeries> series;
    for (size_t i = 0; i < run.analyses.size(); ++i) {
      if (!run.analyses[i].ok()) {
        result.Fail(cs::StrFormat("%s analysis of Q%d failed: %s",
                                  layouts_[li].golden, QueryNumbers()[i],
                                  run.analyses[i].status().ToString().c_str()));
      } else if (!run.series[i]->ok()) {
        result.Fail(cs::StrFormat("%s series of Q%d failed: %s",
                                  layouts_[li].golden, QueryNumbers()[i],
                                  run.series[i]->status().ToString().c_str()));
      } else {
        series.push_back(**run.series[i]);
      }
    }
    if (narrow_) continue;
    // The figure text exactly as the driver prints it on stdout.
    const std::string text =
        cs::exp::RenderFigureTable(layouts_[li].title, series) + "\nCSV:\n" +
        cs::exp::RenderFigureCsv(series);
    const std::string path = args_.root + "/tests/golden/expected/" +
                             layouts_[li].golden + ".stdout";
    const cs::Result<std::string> golden = ReadFile(path);
    if (!golden.ok()) {
      result.Fail(golden.status().ToString());
    } else if (*golden != text) {
      result.Fail(std::string(layouts_[li].golden) +
                  " figure text differs from " + path);
    }
  }
  if (!narrow_) return;
  const std::string ids = RenderPlanIds(runs);
  const cs::Result<std::string> expected =
      ReadFile(args_.root + "/" + kNarrowExpectation);
  if (expected.ok() && *expected == ids) return;
  // Leave the ids found for a maintainer to inspect, or to copy over the
  // expectation after an intended change.
  const std::string actual = args_.work_dir + "/sweep_narrow_plans.actual.txt";
  const cs::Status written = WriteFile(actual, ids);
  if (!expected.ok()) {
    result.Fail(expected.status().ToString());
  } else {
    result.Fail(std::string("discovered plan ids differ from ") +
                kNarrowExpectation + "; found ids are in " + actual);
  }
  if (!written.ok()) result.Fail(written.ToString());
}

void SweepWorkload::CompareRuns(const std::vector<LayoutRun>& a,
                                const std::vector<LayoutRun>& b,
                                RunResult& result) {
  for (size_t li = 0; li < a.size(); ++li) {
    for (size_t i = 0; i < a[li].analyses.size(); ++i) {
      const auto& x = a[li].analyses[i];
      const auto& y = b[li].analyses[i];
      if (x.ok() != y.ok()) {
        result.Fail("traced and untraced runs disagree on success");
        continue;
      }
      if (!x.ok()) continue;
      bool same = x->initial_plan_id == y->initial_plan_id &&
                  x->candidate_plans.size() == y->candidate_plans.size();
      for (size_t p = 0; same && p < x->candidate_plans.size(); ++p) {
        same = x->candidate_plans[p].plan_id == y->candidate_plans[p].plan_id;
      }
      const auto& sx = *a[li].series[i];
      const auto& sy = *b[li].series[i];
      same = same && sx.ok() == sy.ok();
      if (same && sx.ok()) {
        same = sx->points.size() == sy->points.size();
        for (size_t k = 0; same && k < sx->points.size(); ++k) {
          same = sx->points[k].gtc == sy->points[k].gtc &&
                 sx->points[k].worst_rival == sy->points[k].worst_rival;
        }
      }
      if (!same) {
        result.Fail("traced run differs from the untraced run for " +
                    x->query_name);
      }
    }
  }
}

RunResult SweepWorkload::Run() {
  RunResult result;
  // Set-up is repeated and its median reported, so work moved into set-up
  // shows. Batches run before the timed phase and after every sweep, so
  // the median samples the host's speed across the run as the sweep times
  // do; the latest set-up's objects serve the next sweep.
  constexpr int kSetupsPerBatch = 25;
  std::vector<double> setup_s;
  auto setup_batch = [&] {
    const int64_t begin = NowNs();
    for (int i = 0; i < kSetupsPerBatch; ++i) setup_s.push_back(Setup());
    return NowNs() - begin;
  };
  setup_batch();

  // The timed phase: whole cold sweeps (fresh runner, fresh caches) until
  // the run length is used up, at least one.
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<LayoutRun> runs;
  Outcomes outcomes;
  const int64_t phase_begin = NowNs();
  int64_t phase_setup_ns = 0;
  do {
    const double cpu_begin = CpuSeconds();
    const int64_t begin = NowNs();
    runs = RunUntraced(*setup_->pool);
    const double wall = static_cast<double>(NowNs() - begin) / 1e9;
    cpu_s.push_back(CpuSeconds() - cpu_begin);
    wall_s.push_back(wall);
    CheckOutputs(runs, result);
    for (const LayoutRun& run : runs) {
      for (size_t i = 0; i < run.analyses.size(); ++i) {
        outcomes.Add(AnalysisOk(run, i) ? Outcome::kOk : Outcome::kFailed,
                     wall * 1e3);
      }
    }
    phase_setup_ns += setup_batch();
  } while (static_cast<double>(NowNs() - phase_begin - phase_setup_ns) / 1e9 <
           args_.seconds);
  const double phase_s =
      static_cast<double>(NowNs() - phase_begin - phase_setup_ns) / 1e9;

  result.attempted = outcomes.attempted();
  result.failed = outcomes.failed();
  std::vector<double> sweep_ms;
  for (double w : wall_s) sweep_ms.push_back(w * 1e3);
  std::sort(sweep_ms.begin(), sweep_ms.end());
  const double lat_p50 = NearestRank(sweep_ms, 0.5).value;
  const double lat_p99 = NearestRank(sweep_ms, 0.99).value;
  result.Set("setup_s", Median(setup_s));
  result.Set("analysis_wall_s", Median(wall_s));
  result.Set("cpu_s", Median(cpu_s));
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("ok_share", outcomes.ok_share());
  result.Set("requests_per_s",
             static_cast<double>(outcomes.attempted() - outcomes.failed()) /
                 phase_s);
  // A sweep is one request: each latency metric is the sweep's wall time.
  result.Set("lat_p50_ms", lat_p50);
  result.Set("lat_p99_ms", lat_p99);
  result.Set("lat_discovery_p99_ms", lat_p99);
  result.Set("lat_worstcase_p99_ms", lat_p99);
  result.Set("lat_gtcseries_p99_ms", lat_p99);
  std::string walls;
  for (size_t i = 0; i < wall_s.size(); ++i) {
    walls += cs::StrFormat("%s%.3f/%.3f", i == 0 ? "" : " ", wall_s[i],
                           cpu_s[i]);
  }
  result.Note(cs::StrFormat(
      "sweeps=%zu (wall/cpu s: %s) analyses=%zu failed=%zu "
      "failed_share=%.6g; each latency metric is the per-sweep wall time",
      wall_s.size(), walls.c_str(), outcomes.attempted(), outcomes.failed(),
      outcomes.failed_share()));
  if (!args_.trace) return result;

  // The traced run: the same analyses from entry points, on a fresh pool so
  // its counters describe this run alone.
  cs::runtime::ThreadPool traced_pool(args_.threads);
  LayerProbe probe;
  double series_ms = 0.0;
  const int64_t traced_begin = NowNs();
  const std::vector<LayoutRun> traced =
      RunTraced(traced_pool, probe, &series_ms, result);
  const double traced_s = static_cast<double>(NowNs() - traced_begin) / 1e9;
  CheckOutputs(traced, result);
  CompareRuns(runs, traced, result);

  const LayerProbe::Totals t = probe.totals();
  SetLayerMetrics(t, traced_pool.stats(), CatalogMs(), result);
  if (narrow_ && !(t.ls_err_max < 0.01)) {
    result.Fail(cs::StrFormat("core.ls_err_max %.6g is not below 1%%",
                              t.ls_err_max));
  }
  if (narrow_ && t.ls_plans == 0) {
    result.Fail("no plan's usage vector came from least squares");
  }
  result.Set("exp.series_ms", series_ms);
  // The serve layer is not reached by a sweep.
  for (const char* name :
       {"serve.dispatch_ms_p50", "serve.dispatch_ms_p99",
        "serve.overhead_ms_p50", "serve.admission_peak_inflight",
        "serve.admission_rejected"}) {
    result.Set(name, 0.0);
  }
  result.Set("trace.overhead_share", traced_s / Median(wall_s) - 1.0);
  result.Note(cs::StrFormat("traced wall %.3f s vs untraced median %.3f s",
                            traced_s, Median(wall_s)));
  return result;
}

}  // namespace

RunResult RunSweep(const RunArgs& args, bool narrow) {
  return SweepWorkload(args, narrow).Run();
}

}  // namespace perfbench
