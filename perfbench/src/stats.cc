#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Percentile NearestRank(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  const double exact = q * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  p.rank = rank;
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

int64_t UnionLength(std::vector<Interval> spans, Interval window) {
  for (Interval& s : spans) {
    s.begin_ns = std::max(s.begin_ns, window.begin_ns);
    s.end_ns = std::min(s.end_ns, window.end_ns);
  }
  std::erase_if(spans,
                [](const Interval& s) { return s.end_ns <= s.begin_ns; });
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_ns < b.begin_ns;
            });
  int64_t total = 0;
  int64_t open_begin = 0;
  int64_t open_end = std::numeric_limits<int64_t>::min();
  for (const Interval& s : spans) {
    if (s.begin_ns > open_end) {
      if (open_end > open_begin) total += open_end - open_begin;
      open_begin = s.begin_ns;
      open_end = s.end_ns;
    } else {
      open_end = std::max(open_end, s.end_ns);
    }
  }
  if (open_end > open_begin) total += open_end - open_begin;
  return total;
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  const int64_t length = std::max<int64_t>(0, parent.end_ns - parent.begin_ns);
  return length - UnionLength(std::move(children), parent);
}

void Outcomes::Add(Outcome outcome, double latency_ms) {
  switch (outcome) {
    case Outcome::kOk:
      latencies_ms_.push_back(latency_ms);
      return;
    case Outcome::kFailed:
      ++failed_;
      break;
    case Outcome::kRefused:
      ++refused_;
      break;
  }
  latencies_ms_.push_back(std::numeric_limits<double>::infinity());
}

double Outcomes::failed_share() const {
  if (attempted() == 0) return 1.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted());
}

std::vector<double> Outcomes::SortedLatencies() const {
  std::vector<double> out = latencies_ms_;
  std::sort(out.begin(), out.end());
  return out;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// The smallest octave the histogram resolves: values below 2^kMinExponent
// (and zero) fall into bucket 0. Bucket 1 + (e - kMinExponent)*32 + s holds
// [2^e * (1 + s/32), 2^e * (1 + (s+1)/32)), so sub-unit values keep the
// same relative resolution as large ones.
constexpr int kMinExponent = -40;

size_t BucketOf(double value, int sub_buckets) {
  if (!(value >= std::ldexp(1.0, kMinExponent))) return 0;
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // [0.5, 1)
  const int e = exponent - 1;
  const int s = std::min(
      sub_buckets - 1, static_cast<int>((mantissa * 2.0 - 1.0) * sub_buckets));
  return 1 + static_cast<size_t>(e - kMinExponent) * sub_buckets +
         static_cast<size_t>(s);
}

double BucketMiddle(size_t bucket, int sub_buckets) {
  if (bucket == 0) return 0.0;
  const int e = static_cast<int>((bucket - 1) / sub_buckets) + kMinExponent;
  const size_t s = (bucket - 1) % sub_buckets;
  const double lo = std::ldexp(1.0 + static_cast<double>(s) / sub_buckets, e);
  const double hi =
      std::ldexp(1.0 + static_cast<double>(s + 1) / sub_buckets, e);
  return std::sqrt(lo * hi);
}

}  // namespace

void LogHistogram::Add(double value) {
  const size_t b = BucketOf(value, kSubBuckets);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(count_) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, count_);
  size_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return BucketMiddle(b, kSubBuckets);
  }
  return BucketMiddle(buckets_.size() - 1, kSubBuckets);
}

}  // namespace perfbench
