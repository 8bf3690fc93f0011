// Tests for the benchmark's own arithmetic (bench_math.h). Plain checks that stay active in
// optimized builds; exits non-zero on the first failed expectation.
//
//   cmake --build .bench_build --target perfbench_math_test && .bench_build/perfbench_math_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/bench_math.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "math_test.cc:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  using perfbench::MinSamplesFor;
  using perfbench::NearestRank;
  // p90 needs 100 samples for 10 to lie beyond it; 99 leave only 9.
  EXPECT(MinSamplesFor(0.9) == 100);
  EXPECT(MinSamplesFor(0.5) == 20);
  const auto p90 = NearestRank(Iota(100), 0.9);
  EXPECT(p90.ok && p90.value == 90 && p90.beyond == 10);
  const auto short90 = NearestRank(Iota(99), 0.9);
  EXPECT(!short90.ok && short90.beyond == 9);
  // Order of the input does not matter.
  std::vector<double> rev = Iota(100);
  std::vector<double> shuffled(rev.rbegin(), rev.rend());
  EXPECT(NearestRank(shuffled, 0.9).value == 90);
  const auto p50 = NearestRank(Iota(20), 0.5);
  EXPECT(p50.ok && p50.value == 10 && p50.beyond == 10);
  EXPECT(!NearestRank({}, 0.5).ok);
  EXPECT(!NearestRank(Iota(200), 1.0).ok);
  // MinSamplesFor agrees with NearestRank at the boundary for several percentiles.
  for (const double p : {0.5, 0.75, 0.9, 0.95, 0.99}) {
    const size_t n = MinSamplesFor(p);
    EXPECT(NearestRank(Iota(n), p).ok);
    EXPECT(!NearestRank(Iota(n - 1), p).ok);
  }
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0);
}

void LatencyFromDueTime() {
  perfbench::Pacer pacer{1'000'000, 2e6};  // t0 = 1 s, 2M events/s
  // A 100k-event frame is due 50 ms after t0, the second at 100 ms.
  EXPECT(pacer.DueUs(100000) == 1'050'000);
  EXPECT(pacer.DueUs(200000) == 1'100'000);
  // On time: fed at the due time, result 7 ms later -> 7 ms.
  EXPECT(Near(perfbench::LatencyFromDueMs(1'107'000, pacer.DueUs(200000)), 7.0));
  EXPECT(perfbench::GeneratorLateMs(1'100'000, 1'100'000) == 0);
  // The generator ran 30 ms late (stalled control thread): the frame was fed at 130 ms and
  // its result came 7 ms after that. Latency is charged from the due time: 37 ms, not 7.
  const int64_t due = pacer.DueUs(200000);
  const int64_t fed = due + 30'000;
  EXPECT(Near(perfbench::GeneratorLateMs(fed, due), 30.0));
  EXPECT(Near(perfbench::LatencyFromDueMs(fed + 7'000, due), 37.0));
  // Early feeding is never credited as negative lateness.
  EXPECT(perfbench::GeneratorLateMs(due - 500, due) == 0);
}

void WindowCreditAccounting() {
  perfbench::WindowCredit credit(2);
  EXPECT(credit.CanStart());
  credit.Start();  // window 0
  EXPECT(credit.CanStart());
  credit.Start();  // window 1
  EXPECT(!credit.CanStart());
  EXPECT(credit.outstanding() == 2);
  credit.Return(0);  // polled, nothing came back
  EXPECT(!credit.CanStart());
  credit.Return(1);  // window 0's result
  EXPECT(credit.CanStart() && credit.outstanding() == 1);
  credit.Start();  // window 2
  EXPECT(!credit.CanStart());
  credit.Return(2);  // windows 1 and 2 in one poll
  EXPECT(credit.outstanding() == 0 && credit.CanStart());
  // A result with no window started is clamped, not turned into extra credit.
  credit.Return(5);
  EXPECT(credit.outstanding() == 0 && credit.returned() == credit.started());
  credit.Start();
  credit.Start();
  EXPECT(!credit.CanStart());
}

void PerMillionNormalisation() {
  EXPECT(Near(perfbench::PerMillionEvents(11000, 40'000'000), 275.0));
  EXPECT(Near(perfbench::PerMillionEvents(77000, 40'000'000), 1925.0));
  EXPECT(perfbench::PerMillionEvents(5, 0) == 0);
  EXPECT(Near(perfbench::PerEvent(3'000'000, 1'000'000), 3.0));
  EXPECT(perfbench::PerEvent(3, 0) == 0);
}

void HistogramQuantiles() {
  std::vector<uint64_t> buckets(48, 0);
  EXPECT(perfbench::HistogramQuantile(buckets, 0.5) == 0);
  buckets[11] = 10;  // ten values in [1024, 2048)
  EXPECT(Near(perfbench::HistogramQuantile(buckets, 0.5), 1536.0));
  EXPECT(Near(perfbench::HistogramQuantile(buckets, 1.0), 2048.0));
  buckets[1] = 10;  // ten values of 1: the median sits at the top of bucket 1
  EXPECT(Near(perfbench::HistogramQuantile(buckets, 0.5), 2.0));
  EXPECT(perfbench::HistogramQuantile(buckets, 0.75) > 1024);
}

}  // namespace

int main() {
  PercentileRule();
  LatencyFromDueTime();
  WindowCreditAccounting();
  PerMillionNormalisation();
  HistogramQuantiles();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench math: all checks passed\n");
  return 0;
}
