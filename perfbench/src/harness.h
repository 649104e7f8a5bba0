#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/config.h"
#include "query/query.h"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Repository root (where tests/golden/expected lives).
  std::string root = ".";
  /// Scratch directory for files a run needs (inside the checkout).
  std::string work_dir = ".";
  /// Worker-pool size and client count: the CPUs the process may use.
  size_t threads = 1;
};

/// What a run reports: the correctness verdict, attempt accounting, and
/// metric values by name. Units come from BENCHMARK.json (run.py).
struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines for stderr (sample counts, failed checks).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed correctness gate.
  void Fail(const std::string& why);
};

/// The quick query subset every workload runs: Q1, Q8, Q11, Q16, Q19, Q20.
std::vector<int> QueryNumbers();

/// Engine settings shared by the workloads: quick mode, `threads` lanes,
/// default cache and sweep kernel (the environment is never read).
costsense::engine::EngineConfig MakeEngineConfig(size_t threads);

/// Monotonic clock in nanoseconds.
int64_t NowNs();
/// Process CPU time (user + system) in seconds.
double CpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

[[nodiscard]] costsense::Result<std::string> ReadFile(const std::string& path);
[[nodiscard]] costsense::Status WriteFile(const std::string& path,
                                          const std::string& text);

/// The seed's permutation of 0..n-1 for `stream` (layout order, query
/// order, request mix).
std::vector<size_t> SeededOrder(uint64_t seed, uint64_t stream, size_t n);

RunResult RunSweep(const RunArgs& args, bool narrow);
RunResult RunServeWarm(const RunArgs& args);

/// Renders the final result line: correct/attempted/failed and every
/// metric as a name -> value map.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
