// §9.3 "Trusted primitive vectorization": the hand-written SIMD sort/merge kernels against the
// standard-library alternatives the paper swaps in (libc qsort and std::sort), plus the induced
// GroupBy slowdown.
//
// Paper: vectorized sort beats std::sort by >2x and qsort by much more; replacing it inside
// GroupBy costs 2x (std::sort) to 7x (qsort).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/primitives/vec_sort.h"

namespace sbt {
namespace {

int QsortCmp(const void* a, const void* b) {
  const int64_t x = *static_cast<const int64_t*>(a);
  const int64_t y = *static_cast<const int64_t*>(b);
  return (x > y) - (x < y);
}

std::vector<int64_t> RandomData(size_t n, uint64_t seed = 31337) {
  Xoshiro256 rng(seed);
  std::vector<int64_t> data(n);
  for (auto& v : data) {
    v = static_cast<int64_t>(rng.Next());
  }
  return data;
}

template <typename SortFn>
double TimeSort(const std::vector<int64_t>& input, int reps, SortFn&& sort_fn) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    std::vector<int64_t> data = input;
    const ProcTimeUs t0 = NowUs();
    sort_fn(data);
    best = std::min(best, static_cast<double>(NowUs() - t0) / 1e6);
  }
  return best;
}

void RunVectorizeSort() {
  const size_t n = 1u << 20;  // 1M keys, the per-window sort size
  const int reps = 3;
  const auto input = RandomData(n * static_cast<size_t>(BenchScale()));

  PrintHeader("Vectorized sort/merge vs libc qsort and std::sort (1M random 64-bit keys)",
              "hand-vectorized sort >2x std::sort; GroupBy drops 2x/7x without it");

  std::vector<int64_t> scratch(input.size());
  const double vec_s = TimeSort(input, reps, [&scratch](std::vector<int64_t>& d) {
    SortI64(d, scratch, SortImpl::kVector);
  });
  const double scalar_s = TimeSort(input, reps, [&scratch](std::vector<int64_t>& d) {
    SortI64(d, scratch, SortImpl::kScalar);
  });
  const double std_s = TimeSort(
      input, reps, [](std::vector<int64_t>& d) { std::sort(d.begin(), d.end()); });
  const double qsort_s = TimeSort(input, reps, [](std::vector<int64_t>& d) {
    qsort(d.data(), d.size(), sizeof(int64_t), QsortCmp);
  });

  const double mkeys = input.size() / 1e6;
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s\n", "SBT vectorized (AVX2)", vec_s, mkeys / vec_s);
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s  (%.1fx slower)\n", "SBT scalar mergesort",
              scalar_s, mkeys / scalar_s, scalar_s / vec_s);
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s  (%.1fx slower)\n", "std::sort", std_s,
              mkeys / std_s, std_s / vec_s);
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s  (%.1fx slower)\n", "libc qsort", qsort_s,
              mkeys / qsort_s, qsort_s / vec_s);

  // Machine-readable mirror with BOTH in-house impls on every host, so the CI gate can compare
  // vectorized against scalar directly (speedup_vs_scalar is machine-portable; Mkeys/s is not).
  // On a non-AVX2 host kVector falls back to scalar — avx2=false flags those rows so the gate
  // can skip the comparison rather than "pass" a degenerate 1.0x.
  JsonBenchReport report("vectorize_sort");
  const bool avx2 = VectorSortSupported();
  const auto sort_row = [&](const char* impl, double secs) {
    report.BeginRow()
        .Str("op", "sort")
        .Str("impl", impl)
        .Bool("avx2", avx2)
        .Num("seconds", secs)
        .Num("mkeys_per_sec", mkeys / secs)
        .Num("speedup_vs_scalar", scalar_s / secs);
  };
  sort_row("vectorized", vec_s);
  sort_row("scalar", scalar_s);
  sort_row("std_sort", std_s);
  sort_row("qsort", qsort_s);

  // Merge kernel. The two runs need their own seeds: identical runs interleave perfectly, a
  // pattern the branch predictor learns, which made std::merge read several times faster
  // than either in-house merge. Warm the output buffer first so no variant pays first-touch
  // faults.
  std::vector<int64_t> a = RandomData(input.size() / 2, /*seed=*/31337);
  std::vector<int64_t> b = RandomData(input.size() / 2, /*seed=*/27182);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<int64_t> out(a.size() + b.size(), 0);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());  // warmup
  MergeI64(a, b, out, SortImpl::kVector);                           // warmup
  MergeI64(a, b, out, SortImpl::kScalar);                           // warmup

  double vmerge_s = 1e18;
  double scalar_merge_s = 1e18;
  double smerge_s = 1e18;
  for (int r = 0; r < reps * 2; ++r) {
    const ProcTimeUs t0 = NowUs();
    MergeI64(a, b, out, SortImpl::kVector);
    vmerge_s = std::min(vmerge_s, static_cast<double>(NowUs() - t0) / 1e6);
    const ProcTimeUs t1 = NowUs();
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
    smerge_s = std::min(smerge_s, static_cast<double>(NowUs() - t1) / 1e6);
    const ProcTimeUs t2 = NowUs();
    MergeI64(a, b, out, SortImpl::kScalar);
    scalar_merge_s = std::min(scalar_merge_s, static_cast<double>(NowUs() - t2) / 1e6);
  }
  std::printf("%-22s %8.3f s\n", "vectorized merge", vmerge_s);
  std::printf("%-22s %8.3f s  (%.1fx vs vectorized)\n", "scalar merge", scalar_merge_s,
              scalar_merge_s / vmerge_s);
  std::printf("%-22s %8.3f s  (%.1fx vs vectorized)\n", "std::merge", smerge_s,
              smerge_s / vmerge_s);

  const double merge_mkeys = out.size() / 1e6;
  const auto merge_row = [&](const char* impl, double secs) {
    report.BeginRow()
        .Str("op", "merge")
        .Str("impl", impl)
        .Bool("avx2", avx2)
        .Num("seconds", secs)
        .Num("mkeys_per_sec", merge_mkeys / secs)
        .Num("speedup_vs_scalar", scalar_merge_s / secs);
  };
  merge_row("vectorized", vmerge_s);
  merge_row("scalar", scalar_merge_s);
  merge_row("std_merge", smerge_s);
  report.Write();
}

}  // namespace
}  // namespace sbt

int main() {
  sbt::RunVectorizeSort();
  return 0;
}
