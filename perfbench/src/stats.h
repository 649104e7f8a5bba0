#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  /// 1-based rank of the reported sample in the sorted sample.
  size_t rank = 0;
  size_t samples = 0;
  /// Samples strictly above the reported rank.
  size_t beyond = 0;
  /// The reporting rule: a percentile is only a tail estimate when at
  /// least ten samples lie beyond it.
  bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile of `sorted` (ascending; +inf allowed) at
/// quantile `q` in (0, 1]: the sample at rank ceil(q * n). An empty sample
/// yields an unsupported zero.
Percentile NearestRank(const std::vector<double>& sorted, double q);

/// A closed-open time interval in nanoseconds.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Length of the union of `spans` after clipping each to `window`.
/// Overlapping spans (concurrent children on different threads) count
/// once.
int64_t UnionLength(std::vector<Interval> spans, Interval window);

/// A span's self time: its duration minus the part of it that the union
/// of its child spans covers, across all threads.
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// How one attempted analysis or request ended.
enum class Outcome { kOk, kFailed, kRefused };

/// Attempt accounting for a run. A refused (shed) request is a failure:
/// it missed every latency limit, so it enters the latency sample as +inf.
class Outcomes {
 public:
  void Add(Outcome outcome, double latency_ms);

  size_t attempted() const { return latencies_ms_.size(); }
  size_t failed() const { return failed_ + refused_; }
  size_t refused() const { return refused_; }
  double failed_share() const;
  /// 1 - failed_share(): the share reported as an end-to-end metric,
  /// which is never 0 on a run where anything succeeded.
  double ok_share() const { return 1.0 - failed_share(); }

  /// Every attempt's latency, failures and refusals as +inf, sorted.
  std::vector<double> SortedLatencies() const;

 private:
  std::vector<double> latencies_ms_;
  size_t failed_ = 0;
  size_t refused_ = 0;
};

/// Median of a non-empty sample (mean of the two middle values for even
/// sizes).
double Median(std::vector<double> values);

/// A log-bucketed histogram for very frequent, very short durations,
/// where keeping every sample would cost more memory than the traced run
/// should: 32 buckets per power of two from 2^-40 up, so a percentile
/// of samples at or above 2^-40 is within about 2 % of the exact
/// nearest-rank value (smaller samples report 0).
class LogHistogram {
 public:
  void Add(double value);
  void Merge(const LogHistogram& other);
  size_t count() const { return count_; }
  /// Nearest-rank percentile; reports the geometric middle of the bucket
  /// holding that rank (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kSubBuckets = 32;
  std::vector<uint64_t> buckets_;
  size_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
