// Self-tests of the benchmark's statistics: nearest-rank percentiles and
// the ten-beyond reporting rule, self time as span minus the union of
// overlapping child spans across threads, and failure accounting that
// counts refused requests. Exits nonzero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestNearestRank() {
  const std::vector<double> hundred = Iota(100);
  const perfbench::Percentile p50 = perfbench::NearestRank(hundred, 0.5);
  Check(p50.value == 50.0 && p50.rank == 50, "p50 of 1..100 is 50");
  Check(p50.beyond == 50 && p50.supported(), "p50 of 100 has 50 beyond");
  const perfbench::Percentile p99 = perfbench::NearestRank(hundred, 0.99);
  Check(p99.value == 99.0 && p99.rank == 99, "p99 of 1..100 is 99");
  Check(p99.beyond == 1 && !p99.supported(),
        "p99 of 100 samples has 1 beyond: not a supported tail");

  const std::vector<double> thousand = Iota(1000);
  const perfbench::Percentile t99 = perfbench::NearestRank(thousand, 0.99);
  Check(t99.value == 990.0 && t99.beyond == 10 && t99.supported(),
        "p99 of 1000 samples has exactly 10 beyond: supported");
  const std::vector<double> short_tail = Iota(999);
  Check(!perfbench::NearestRank(short_tail, 0.99).supported(),
        "p99 of 999 samples has 9 beyond: unsupported");

  const std::vector<double> one = {7.5};
  const perfbench::Percentile single = perfbench::NearestRank(one, 0.99);
  Check(single.value == 7.5 && single.rank == 1 && single.beyond == 0,
        "single sample: every percentile is that sample");
  Check(perfbench::NearestRank({}, 0.5).samples == 0, "empty sample");

  // Rank is ceil(q*n), not an interpolation: 0.5 of 3 samples is rank 2.
  Check(perfbench::NearestRank({1.0, 2.0, 40.0}, 0.5).value == 2.0,
        "p50 of 3 samples is the 2nd");
  // Exact products must not round up a rank: 0.3 * 10 = 3 (not 4).
  Check(perfbench::NearestRank(Iota(10), 0.3).value == 3.0,
        "p30 of 10 samples is the 3rd");
}

void TestSelfTime() {
  using perfbench::Interval;
  // Parent 0..100; children on three threads overlap: 10..30 and 20..40
  // cover 10..40 once (30), 60..70 adds 10 -> self = 100 - 40.
  const Interval parent{0, 100};
  Check(perfbench::SelfTime(parent, {{10, 30}, {20, 40}, {60, 70}}) == 60,
        "overlapping children count once");
  // A child spilling past the parent is clipped to it.
  Check(perfbench::SelfTime(parent, {{90, 150}, {-20, 5}}) == 85,
        "children are clipped to the parent window");
  // Fully nested and identical spans from concurrent threads.
  Check(perfbench::SelfTime(parent, {{10, 90}, {20, 30}, {10, 90}}) == 20,
        "nested and duplicate children");
  // Children entirely outside do not count; no children = whole span.
  Check(perfbench::SelfTime(parent, {{200, 300}}) == 100,
        "children outside the window");
  Check(perfbench::SelfTime(parent, {}) == 100, "no children");
  // Children covering everything leave zero self time.
  Check(perfbench::SelfTime(parent, {{0, 50}, {50, 100}}) == 0,
        "adjacent children covering the span");
  Check(perfbench::UnionLength({{0, 10}, {5, 15}, {20, 25}}, {0, 100}) == 20,
        "union length");
}

void TestOutcomes() {
  perfbench::Outcomes o;
  o.Add(perfbench::Outcome::kOk, 1.0);
  o.Add(perfbench::Outcome::kOk, 2.0);
  o.Add(perfbench::Outcome::kRefused, 0.1);
  o.Add(perfbench::Outcome::kFailed, 0.2);
  Check(o.attempted() == 4, "every outcome is attempted");
  Check(o.failed() == 2 && o.refused() == 1, "refused counts as failed");
  Check(o.failed_share() == 0.5, "failed_share counts refused requests");
  Check(o.ok_share() == 0.5, "ok_share is the complement");
  const std::vector<double> lat = o.SortedLatencies();
  Check(lat.size() == 4 && lat[0] == 1.0 && lat[1] == 2.0 &&
            std::isinf(lat[2]) && std::isinf(lat[3]),
        "failed and refused requests enter the sample as +inf");
  // p50 of that sample is a real latency, p99 is +inf.
  Check(perfbench::NearestRank(lat, 0.5).value == 2.0, "p50 with refusals");
  Check(std::isinf(perfbench::NearestRank(lat, 0.99).value),
        "p99 with refusals is +inf");

  perfbench::Outcomes empty;
  Check(empty.failed_share() == 1.0, "no attempts: nothing succeeded");
}

void TestMedianAndHistogram() {
  Check(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Check(perfbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  perfbench::LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  const double p50 = h.Quantile(0.5);
  Check(std::fabs(p50 - 500.0) / 500.0 < 0.03, "histogram p50 within 3%");
  // Sub-unit values (a cache hit under 1 us) keep the same resolution.
  perfbench::LogHistogram small;
  for (int i = 0; i <= 700; ++i) small.Add(0.2 + 0.001 * i);  // 0.2..0.9
  const double small_p50 = small.Quantile(0.5);
  Check(std::fabs(small_p50 - 0.55) / 0.55 < 0.03,
        "histogram p50 of values in 0.2..0.9 within 3%");
  perfbench::LogHistogram tiny;
  tiny.Add(0.095);
  Check(std::fabs(tiny.Quantile(0.5) - 0.095) / 0.095 < 0.03,
        "a value below 0.1 is not rounded to a fixed bucket");
  h.Merge(small);
  Check(h.count() == 1701, "merge adds counts");
  Check(perfbench::LogHistogram().Quantile(0.5) == 0.0, "empty histogram");
}

}  // namespace

int main() {
  TestNearestRank();
  TestSelfTime();
  TestOutcomes();
  TestMedianAndHistogram();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::puts("perfbench_stats_test: all checks passed");
  return 0;
}
