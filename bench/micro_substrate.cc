// Micro-benchmarks of the supporting substrates: linear algebra,
// usage-vector extraction through the narrow interface, and disk trace
// replay.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/usage_extraction.h"
#include "linalg/least_squares.h"
#include "sim/replay.h"
#include "tests/core/fake_oracle.h"

namespace costsense {
namespace {

void BM_LeastSquares(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<linalg::Vector> rows;
  linalg::Vector truth(n), t(2 * n);
  for (size_t j = 0; j < n; ++j) truth[j] = rng.LogUniform(1.0, 1e6);
  for (size_t i = 0; i < 2 * n; ++i) {
    linalg::Vector r(n);
    for (size_t j = 0; j < n; ++j) r[j] = rng.LogUniform(0.01, 100.0);
    t[i] = linalg::Dot(r, truth);
    rows.push_back(std::move(r));
  }
  const linalg::Matrix m = linalg::Matrix::FromRows(rows);
  for (auto _ : state) {
    const auto fit = linalg::LeastSquares(m, t);
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_LeastSquares)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_UsageExtraction(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  Rng init(7);
  std::vector<core::PlanUsage> plans;
  for (int p = 0; p < 6; ++p) {
    core::UsageVector u(dims);
    for (size_t i = 0; i < dims; ++i) u[i] = init.LogUniform(1.0, 1e5);
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  const core::Box box =
      core::Box::MultiplicativeBand(core::CostVector(dims, 1.0), 100.0);
  core::FakeOracle probe(plans, false);
  const std::string target = probe.Optimize(box.Center()).plan_id;
  size_t calls = 0, runs = 0;
  for (auto _ : state) {
    core::FakeOracle oracle(plans, false);
    Rng rng(11);
    const auto ex = core::ExtractUsageVector(oracle, target, box.Center(),
                                             box, rng, {});
    benchmark::DoNotOptimize(ex.ok());
    calls += oracle.calls();
    ++runs;
  }
  state.counters["oracle_calls"] =
      static_cast<double>(calls) / static_cast<double>(runs);
}
BENCHMARK(BM_UsageExtraction)->Arg(3)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_TraceReplay(benchmark::State& state) {
  const sim::DiskGeometry disk;
  Rng rng(5);
  sim::IoTrace trace;
  sim::AppendSequential(trace, 0, 0, 50000, 32);
  sim::AppendRandom(trace, 0, static_cast<uint64_t>(state.range(0)),
                    1u << 24, rng);
  for (auto _ : state) {
    const auto r = sim::Replay(trace, {disk});
    benchmark::DoNotOptimize(r.total_time);
  }
}
BENCHMARK(BM_TraceReplay)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace costsense

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(
      argc, argv, "micro_substrate",
      [](costsense::engine::Engine&, int gb_argc, char** gb_argv) {
        benchmark::Initialize(&gb_argc, gb_argv);
        if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
      });
}
