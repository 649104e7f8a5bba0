#include "src/harness.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "common/strings.h"
#include "exp/report.h"

namespace perfbench {
namespace {

std::string JsonNumber(double v) {
  // JSON has no infinity; a failed request's +inf latency is clamped to
  // the largest double (such a run is already marked incorrect).
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return costsense::StrFormat("%.17g", v);
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

std::vector<int> QueryNumbers() { return costsense::exp::QuickQueryNumbers(); }

costsense::engine::EngineConfig MakeEngineConfig(size_t threads) {
  costsense::engine::EngineConfig config;
  config.threads = threads;
  config.quick = true;
  return config;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

costsense::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return costsense::Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

costsense::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) return costsense::Status::Internal("cannot write " + path);
  return costsense::Status::Ok();
}

std::vector<size_t> SeededOrder(uint64_t seed, uint64_t stream, size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  costsense::Rng rng = costsense::Rng(seed).Fork(stream);
  rng.Shuffle(order);
  return order;
}

std::string ResultJson(const RunResult& result) {
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += costsense::StrFormat("\"%s\": %s", name.c_str(),
                                    JsonNumber(value).c_str());
  }
  return costsense::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
}

}  // namespace perfbench
