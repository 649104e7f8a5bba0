// Micro-benchmarks of the optimizer itself: the cost-independent
// preparation of one TPC-H query's plan space, then one dynamic-programming
// optimization per call over it (prepared once, as NarrowOptimizer does),
// with the DP's join candidates priced, charged, built and kept per call,
// plus the ablation the paper's setup implies (bushy vs left-deep
// enumeration — DB2's optimization level 7 considers bushy trees, Section
// 7.1).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/feasible_region.h"
#include "opt/join_enum.h"
#include "opt/optimizer.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense {
namespace {

const catalog::Catalog& Cat() {
  static const catalog::Catalog* cat =
      new catalog::Catalog(tpch::MakeTpchCatalog(100.0));
  return *cat;
}

void BM_PrepareTpch(benchmark::State& state) {
  const query::Query q =
      tpch::MakeTpchQuery(Cat(), static_cast<int>(state.range(0)));
  const storage::StorageLayout layout(
      storage::LayoutPolicy::kPerTableAndIndex, Cat(),
      query::ReferencedTables(q));
  const storage::ResourceSpace space = layout.BuildResourceSpace();
  const opt::Optimizer optimizer(Cat(), layout, space);
  for (auto _ : state) {
    const auto prepared = optimizer.Prepare(q);
    benchmark::DoNotOptimize((*prepared)->SubsetRows(1));
  }
  state.SetLabel("tables=" + std::to_string(q.num_tables()));
}
BENCHMARK(BM_PrepareTpch)->Arg(1)->Arg(3)->Arg(5)->Arg(9)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_OptimizeTpch(benchmark::State& state) {
  const query::Query q = tpch::MakeTpchQuery(Cat(), static_cast<int>(state.range(0)));
  const storage::StorageLayout layout(
      storage::LayoutPolicy::kPerTableAndIndex, Cat(),
      query::ReferencedTables(q));
  const storage::ResourceSpace space = layout.BuildResourceSpace();
  const opt::Optimizer optimizer(Cat(), layout, space);
  const auto prepared = optimizer.Prepare(q);
  const core::Box box =
      core::Box::MultiplicativeBand(space.BaselineCosts(), 100.0);
  Rng rng(1);
  // One enumerator per call over the shared prepared space, as
  // Optimizer::Optimize does; its DP counters are reported per call.
  opt::JoinEnumerator::Counters dp;
  for (auto _ : state) {
    opt::JoinEnumerator enumerator(**prepared);
    const auto r = enumerator.BestPlan(box.SampleLogUniform(rng));
    benchmark::DoNotOptimize((*r)->usage);
    dp.priced += enumerator.counters().priced;
    dp.charged += enumerator.counters().charged;
    dp.built += enumerator.counters().built;
    dp.kept += enumerator.counters().kept;
  }
  const auto per_call = [](size_t n) {
    return benchmark::Counter(static_cast<double>(n),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["priced"] = per_call(dp.priced);
  state.counters["charged"] = per_call(dp.charged);
  state.counters["built"] = per_call(dp.built);
  state.counters["kept"] = per_call(dp.kept);
  state.SetLabel("tables=" + std::to_string(q.num_tables()));
}
BENCHMARK(BM_OptimizeTpch)->Arg(1)->Arg(3)->Arg(5)->Arg(9)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_OptimizeBushyVsLeftDeep(benchmark::State& state) {
  const query::Query q = tpch::MakeTpchQuery(Cat(), 8);
  const storage::StorageLayout layout(
      storage::LayoutPolicy::kPerTableAndIndex, Cat(),
      query::ReferencedTables(q));
  const storage::ResourceSpace space = layout.BuildResourceSpace();
  opt::OptimizerOptions options;
  options.bushy_joins = state.range(0) != 0;
  const opt::Optimizer optimizer(Cat(), layout, space, options);
  const auto prepared = optimizer.Prepare(q);
  const core::CostVector baseline = space.BaselineCosts();
  for (auto _ : state) {
    const auto r = optimizer.Optimize(**prepared, baseline);
    benchmark::DoNotOptimize(r->total_cost);
  }
  state.SetLabel(options.bushy_joins ? "bushy" : "left-deep");
}
BENCHMARK(BM_OptimizeBushyVsLeftDeep)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_MakeTpchCatalog(benchmark::State& state) {
  for (auto _ : state) {
    const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
    benchmark::DoNotOptimize(cat.num_indexes());
  }
}
BENCHMARK(BM_MakeTpchCatalog)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace costsense

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(
      argc, argv, "micro_optimizer",
      [](costsense::engine::Engine&, int gb_argc, char** gb_argv) {
        benchmark::Initialize(&gb_argc, gb_argv);
        if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
      });
}
