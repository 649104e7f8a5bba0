// Fault-sweep acceptance harness for the resilience tier: runs the
// worst-case figure pipeline (queries 1 and 19, per-table-and-index
// layout) at injected transient-fault rates {0%, 5%, 20%} with a retry
// budget that absorbs every burst, and asserts the figure output (table,
// CSV, discovered plan ids) is byte-identical to a fault-free run at
// thread counts 1 and 3. A final run at 20% faults with a zero retry
// budget must still complete, with the driver-side degraded counts
// reconciling exactly against the injector's own fault log.
//
// Faulted and fault-free runs go through the same FigureRunner::Analyze;
// only FigureRunner::Options::resilience decides which top the per-query
// oracle stack gets. This harness is the one caller that turns the fault
// tier on, and its 3-thread runs are the only place that tier meets
// AnalyzeMany's fan-out, so ctest also runs it under TSan (label
// concurrency). One JSON perf line per configuration lands on stderr /
// COSTSENSE_BENCH_JSON.
//
// Exit status 0 means every assertion held.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/artifact.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/metrics.h"
#include "runtime/resilience/clock.h"
#include "runtime/thread_pool.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::bench {
namespace {

struct RunOutput {
  std::string table;
  std::string csv;
  std::vector<std::string> plan_ids;
  runtime::RuntimeMetrics metrics;
  size_t probe_calls = 0;
  bool all_ok = true;
  // Per-analysis counters, for the per-query accounting identity.
  std::vector<exp::QueryAnalysis> analyses;
};

RunOutput RunFigure(const catalog::Catalog& catalog, runtime::ThreadPool* pool,
                    bool resilience_enabled, double fault_rate,
                    size_t max_retries,
                    runtime::resilience::Clock* clock) {
  exp::FigureRunner::Options options;
  options.deltas = {2, 10, 100, 1000};
  options.discovery.random_samples = 12;
  options.discovery.sampled_vertices = 24;
  options.discovery.bisection_depth = 2;
  options.discovery.completeness_rounds = 1;
  options.pool = pool;
  options.resilience.enabled = resilience_enabled;
  options.resilience.faults.fault_rate = fault_rate;
  options.resilience.retry.max_retries = max_retries;
  options.resilience.clock = clock;
  const exp::FigureRunner runner(catalog, options);

  std::vector<query::Query> queries;
  for (int qn : {1, 19}) queries.push_back(tpch::MakeTpchQuery(catalog, qn));
  const std::vector<Result<exp::QueryAnalysis>> analyses =
      runner.AnalyzeMany(queries, storage::LayoutPolicy::kPerTableAndIndex);

  RunOutput out;
  out.metrics.threads = pool->num_threads();
  std::vector<exp::FigureSeries> all;
  for (const Result<exp::QueryAnalysis>& analysis : analyses) {
    if (!analysis.ok()) {
      std::fprintf(stderr, "analysis failed: %s\n",
                   analysis.status().ToString().c_str());
      out.all_ok = false;
      continue;
    }
    for (const core::PlanUsage& p : analysis->candidate_plans) {
      out.plan_ids.push_back(p.plan_id);
    }
    const Result<exp::FigureSeries> series = runner.GtcSeries(*analysis);
    if (!series.ok()) {
      std::fprintf(stderr, "series failed: %s\n",
                   series.status().ToString().c_str());
      out.all_ok = false;
      continue;
    }
    all.push_back(*series);
    out.metrics.cache_hits += analysis->cache_hits;
    out.metrics.cache_misses += analysis->cache_misses;
    out.probe_calls += analysis->oracle_probe_calls;
    out.metrics.oracle_attempts += analysis->oracle_attempts;
    out.metrics.oracle_retries += analysis->oracle_retries;
    out.metrics.oracle_failures += analysis->oracle_failures;
    out.metrics.faults_injected += analysis->faults_injected;
    out.metrics.degraded_points += analysis->degraded_points;
    out.analyses.push_back(*analysis);
  }
  if (out.probe_calls > 0) {
    out.metrics.coverage =
        static_cast<double>(out.probe_calls - out.metrics.oracle_failures) /
        static_cast<double>(out.probe_calls);
  }
  out.table = exp::RenderFigureTable("fault-sweep", all);
  out.csv = exp::RenderFigureCsv(all);
  return out;
}

int Run(engine::Engine& eng) {
  const catalog::Catalog catalog = tpch::MakeTpchCatalog(100.0);
  // Per-configuration perf lines only: this harness writes no figure or
  // sidecar record.
  engine::ArtifactWriter writer(eng.config());
  runtime::resilience::ManualClock clock;

  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++failures;
    }
  };

  // Absorbed-fault equivalence: at every thread count, every fault rate
  // the retry budget can absorb must leave the figure output untouched.
  const double kRates[] = {0.0, 0.05, 0.20};
  std::string reference_table;  // the threads=1 fault-free output
  for (size_t threads : {size_t{1}, size_t{3}}) {
    runtime::ThreadPool pool(threads);
    const RunOutput baseline =
        RunFigure(catalog, &pool, /*resilience_enabled=*/false,
                  /*fault_rate=*/0.0, /*max_retries=*/0, nullptr);
    check(baseline.all_ok, "baseline run completed");
    if (reference_table.empty()) {
      reference_table = baseline.table;
    } else {
      // The pre-existing guarantee the resilience tier must not erode:
      // serial and parallel figure output is byte-identical.
      check(baseline.table == reference_table,
            "baseline output identical across thread counts");
    }

    for (double rate : kRates) {
      const RunOutput run =
          RunFigure(catalog, &pool, /*resilience_enabled=*/true, rate,
                    /*max_retries=*/5, &clock);
      const std::string tag =
          "threads=" + std::to_string(threads) +
          " rate=" + std::to_string(rate);
      check(run.all_ok, tag + ": run completed");
      check(run.table == baseline.table, tag + ": table byte-identical");
      check(run.csv == baseline.csv, tag + ": csv byte-identical");
      check(run.plan_ids == baseline.plan_ids,
            tag + ": plan ids byte-identical");
      check(run.metrics.oracle_failures == 0, tag + ": no surfaced failures");
      check(run.metrics.degraded_points == 0, tag + ": no degraded points");
      check(run.metrics.coverage == 1.0, tag + ": full coverage");
      if (rate > 0.0) {
        check(run.metrics.faults_injected > 0,
              tag + ": faults were actually injected");
        check(run.metrics.oracle_retries >= run.metrics.faults_injected,
              tag + ": every fault was absorbed by a retry");
      }
      writer.AppendPerfLine(run.metrics.ToJsonLine(
          "fault_sweep_t" + std::to_string(threads),
          {{"fault_rate", rate},
           {"retry_budget", 5.0},
           {"probe_calls", static_cast<double>(run.probe_calls)}}));
    }
  }

  // Budget exhaustion: with no retries at a 20% fault rate the sweep must
  // still complete, and the degraded accounting must reconcile exactly —
  // per analysis, each injected fault is one surfaced oracle failure is
  // one driver-side degraded point.
  {
    runtime::ThreadPool pool(3);
    const RunOutput degraded =
        RunFigure(catalog, &pool, /*resilience_enabled=*/true,
                  /*fault_rate=*/0.20, /*max_retries=*/0, &clock);
    check(degraded.all_ok, "degraded run completed with exit-0 analyses");
    check(degraded.metrics.faults_injected > 0,
          "degraded run injected faults");
    check(degraded.metrics.coverage < 1.0,
          "degraded run reports partial coverage");
    for (const exp::QueryAnalysis& a : degraded.analyses) {
      check(a.degraded_points == a.oracle_failures,
            a.query_name + ": degraded points == oracle failures");
      check(a.oracle_failures == a.faults_injected,
            a.query_name + ": oracle failures == injected faults");
      check(a.probe_coverage < 1.0,
            a.query_name + ": per-query coverage marked partial");
      check(a.oracle_attempts == a.oracle_probe_calls + a.oracle_retries,
            a.query_name + ": attempts == calls + retries");
    }
    writer.AppendPerfLine(degraded.metrics.ToJsonLine(
        "fault_sweep_degraded",
        {{"fault_rate", 0.20},
         {"retry_budget", 0.0},
         {"probe_calls", static_cast<double>(degraded.probe_calls)}}));
  }
  const Status finished = writer.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "fault_sweep: artifact writer: %s\n",
                 finished.ToString().c_str());
  }

  if (failures == 0) {
    std::fprintf(stderr, "fault_sweep: PASS\n");
    return 0;
  }
  std::fprintf(stderr, "fault_sweep: %d assertion(s) FAILED\n", failures);
  return 1;
}

}  // namespace
}  // namespace costsense::bench

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(
      argc, argv, "fault_sweep",
      [](costsense::engine::Engine& eng, int, char**) {
        return costsense::bench::Run(eng);
      });
}
