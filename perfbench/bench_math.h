// The benchmark's own arithmetic: percentiles, open-loop due times, window credit and
// per-million-event normalisation. Header-only and free of engine types so that
// math_test.cc can check every rule in isolation.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie strictly beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile of `samples` at fraction `p` in (0, 1): the value at rank ceil(p*n)
// of the sorted samples. `beyond` counts the samples ranked after it. `ok` is false when the
// rank leaves fewer than `min_beyond` samples beyond, or there are no samples.
struct Percentile {
  bool ok = false;
  double value = 0;
  size_t beyond = 0;
};

// 1-based nearest rank of fraction `p` among `n` samples: ceil(p*n), at least 1. The epsilon
// keeps p*n that is integral in exact arithmetic (0.9 * 100) from rounding up a rank.
inline size_t RankOf(double p, size_t n) {
  return std::max<size_t>(1, static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9)));
}

inline Percentile NearestRank(std::vector<double> samples, double p,
                              size_t min_beyond = kMinSamplesBeyond) {
  Percentile out;
  if (samples.empty() || p <= 0 || p >= 1) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t rank = RankOf(p, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.ok = out.beyond >= min_beyond;
  return out;
}

// The fewest samples for which NearestRank(p) has `min_beyond` samples beyond it.
inline size_t MinSamplesFor(double p, size_t min_beyond = kMinSamplesBeyond) {
  size_t n = min_beyond + 1;
  while (n - RankOf(p, n) < min_beyond) {
    ++n;
  }
  return n;
}

// Plain median (mean of the middle pair for even counts); 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Open-loop schedule at a fixed event rate. A frame is due once the source has produced its
// last event: t0 + (events up to and including the frame) / rate.
struct Pacer {
  int64_t t0_us = 0;
  double events_per_sec = 1;

  int64_t DueUs(uint64_t events_through) const {
    return t0_us + static_cast<int64_t>(std::llround(static_cast<double>(events_through) * 1e6 /
                                                     events_per_sec));
  }
};

// Result latency of one window, charged from the due time of its last data frame, not from
// when the (possibly stalled) control thread got round to feeding it.
inline double LatencyFromDueMs(int64_t egress_us, int64_t due_us) {
  return static_cast<double>(egress_us - due_us) / 1000.0;
}

// How late a frame was handed to the engine relative to its due time (0 when on time).
inline double GeneratorLateMs(int64_t fed_us, int64_t due_us) {
  return fed_us > due_us ? static_cast<double>(fed_us - due_us) / 1000.0 : 0.0;
}

// Window credit for the flow-controlled closed loop: the source may hold at most `limit`
// windows that it has started feeding but whose results have not come back.
class WindowCredit {
 public:
  explicit WindowCredit(uint32_t limit) : limit_(limit) {}

  bool CanStart() const { return started_ - returned_ < limit_; }
  // Call only when CanStart().
  void Start() { ++started_; }
  // `n` results came back. More results than started windows is a caller bug, clamped so
  // outstanding() never underflows.
  void Return(uint64_t n) { returned_ = std::min(started_, returned_ + n); }

  uint64_t outstanding() const { return started_ - returned_; }
  uint64_t started() const { return started_; }
  uint64_t returned() const { return returned_; }

 private:
  uint64_t limit_;
  uint64_t started_ = 0;
  uint64_t returned_ = 0;
};

// `count` per million events; 0 when no events were processed.
inline double PerMillionEvents(double count, uint64_t events) {
  return events == 0 ? 0.0 : count * 1e6 / static_cast<double>(events);
}

// `count` per event; 0 when no events were processed.
inline double PerEvent(double count, uint64_t events) {
  return events == 0 ? 0.0 : count / static_cast<double>(events);
}

// Quantile of a power-of-two-bucket histogram (bucket 0 = {0}, bucket b = [2^(b-1), 2^b)),
// interpolated linearly inside the bucket that holds the quantile. 0 for an empty histogram.
inline double HistogramQuantile(const std::vector<uint64_t>& buckets, double q) {
  uint64_t total = 0;
  for (const uint64_t c : buckets) total += c;
  if (total == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double c = static_cast<double>(buckets[b]);
    if (c > 0 && seen + c >= target) {
      if (b == 0) {
        return 0;
      }
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(b));
      return lo + (hi - lo) * std::clamp((target - seen) / c, 0.0, 1.0);
    }
    seen += c;
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
