// Unit + differential tests for the trusted primitives.
//
// Every GroupBy-family primitive is checked against an obvious reference computation, and the
// vectorized sort/merge kernels are differentially tested against std::sort / std::merge across
// sizes and distributions (the paper's determinism requirement: same inputs -> same bytes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/primitives/kv.h"
#include "src/primitives/primitives.h"
#include "src/primitives/vec_sort.h"
#include "src/tz/secure_world.h"
#include "src/uarray/allocator.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

TzPartitionConfig TestConfig() { return testing::SmallTzPartition(64); }

class PrimitivesTest : public ::testing::Test {
 protected:
  PrimitivesTest() : world_(TestConfig()), alloc_(&world_) { ctx_.alloc = &alloc_; }

  UArray* MakeEvents(const std::vector<Event>& events) {
    auto arr = alloc_.Create(sizeof(Event), UArrayScope::kStreaming);
    EXPECT_TRUE(arr.ok());
    EXPECT_TRUE((*arr)->Append(events.data(), events.size() * sizeof(Event)).ok());
    (*arr)->Produce();
    return *arr;
  }

  UArray* MakeKV(const std::vector<std::pair<uint32_t, int32_t>>& kvs, bool sorted = false) {
    std::vector<PackedKV> packed;
    packed.reserve(kvs.size());
    for (const auto& [k, v] : kvs) {
      packed.push_back(PackKV(k, v));
    }
    if (sorted) {
      std::sort(packed.begin(), packed.end());
    }
    auto arr = alloc_.Create(sizeof(PackedKV), UArrayScope::kStreaming);
    EXPECT_TRUE(arr.ok());
    EXPECT_TRUE((*arr)->Append(packed.data(), packed.size() * sizeof(PackedKV)).ok());
    (*arr)->Produce();
    return *arr;
  }

  SecureWorld world_;
  UArrayAllocator alloc_;
  PrimitiveContext ctx_;
};

// --- kv packing ---------------------------------------------------------------

TEST(KvTest, PackUnpackRoundTrip) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t key = rng.Next32();
    const int32_t value = static_cast<int32_t>(rng.Next32());
    const PackedKV p = PackKV(key, value);
    EXPECT_EQ(UnpackKey(p), key);
    EXPECT_EQ(UnpackValue(p), value);
  }
}

TEST(KvTest, SignedOrderMatchesKeyThenValue) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t k1 = rng.Next32() % 100;
    const uint32_t k2 = rng.Next32() % 100;
    const int32_t v1 = static_cast<int32_t>(rng.Next32());
    const int32_t v2 = static_cast<int32_t>(rng.Next32());
    const bool expect_less = (k1 != k2) ? (k1 < k2) : (v1 < v2);
    EXPECT_EQ(PackKV(k1, v1) < PackKV(k2, v2), expect_less)
        << k1 << "," << v1 << " vs " << k2 << "," << v2;
  }
}

TEST(KvTest, ExtremeValuesOrderCorrectly) {
  EXPECT_LT(PackKV(0, INT32_MIN), PackKV(0, INT32_MAX));
  EXPECT_LT(PackKV(0, INT32_MAX), PackKV(1, INT32_MIN));
  EXPECT_LT(PackKV(0xfffffffe, 5), PackKV(0xffffffff, -5));
}

// --- vectorized sort/merge -----------------------------------------------------

class VecSortTest : public ::testing::TestWithParam<SortImpl> {};

TEST_P(VecSortTest, MatchesStdSortAcrossSizes) {
  if (GetParam() == SortImpl::kVector && !VectorSortSupported()) {
    GTEST_SKIP() << "no AVX2";
  }
  Xoshiro256 rng(77);
  for (size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 63u, 100u, 1000u, 4096u, 100000u}) {
    std::vector<int64_t> data(n);
    for (auto& v : data) {
      v = static_cast<int64_t>(rng.Next());
    }
    std::vector<int64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    std::vector<int64_t> scratch(n);
    SortI64(data, scratch, GetParam());
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST_P(VecSortTest, HandlesAdversarialDistributions) {
  if (GetParam() == SortImpl::kVector && !VectorSortSupported()) {
    GTEST_SKIP() << "no AVX2";
  }
  const size_t n = 10000;
  std::vector<std::vector<int64_t>> cases;
  // Already sorted, reverse sorted, all equal, few distinct, organ pipe.
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>(i);
  }
  cases.push_back(v);
  std::reverse(v.begin(), v.end());
  cases.push_back(v);
  cases.push_back(std::vector<int64_t>(n, 42));
  Xoshiro256 rng(3);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng.NextBelow(4));
  }
  cases.push_back(v);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>(i < n / 2 ? i : n - i);
  }
  cases.push_back(v);

  for (auto& data : cases) {
    std::vector<int64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    std::vector<int64_t> scratch(data.size());
    SortI64(data, scratch, GetParam());
    EXPECT_EQ(data, expected);
  }
}

TEST_P(VecSortTest, MergeMatchesStdMerge) {
  if (GetParam() == SortImpl::kVector && !VectorSortSupported()) {
    GTEST_SKIP() << "no AVX2";
  }
  Xoshiro256 rng(99);
  for (int round = 0; round < 200; ++round) {
    const size_t na = rng.NextBelow(300);
    const size_t nb = rng.NextBelow(300);
    std::vector<int64_t> a(na);
    std::vector<int64_t> b(nb);
    for (auto& x : a) {
      x = static_cast<int64_t>(rng.NextBelow(1000));
    }
    for (auto& x : b) {
      x = static_cast<int64_t>(rng.NextBelow(1000));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int64_t> expected(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    std::vector<int64_t> out(na + nb);
    MergeI64(a, b, out, GetParam());
    EXPECT_EQ(out, expected) << "round=" << round << " na=" << na << " nb=" << nb;
  }
}

TEST_P(VecSortTest, MergeLargeRuns) {
  if (GetParam() == SortImpl::kVector && !VectorSortSupported()) {
    GTEST_SKIP() << "no AVX2";
  }
  Xoshiro256 rng(13);
  std::vector<int64_t> a(50000);
  std::vector<int64_t> b(70000);
  for (auto& x : a) {
    x = static_cast<int64_t>(rng.Next());
  }
  for (auto& x : b) {
    x = static_cast<int64_t>(rng.Next());
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<int64_t> expected(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  std::vector<int64_t> out(a.size() + b.size());
  MergeI64(a, b, out, GetParam());
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(AllImpls, VecSortTest,
                         ::testing::Values(SortImpl::kScalar, SortImpl::kVector),
                         [](const ::testing::TestParamInfo<SortImpl>& info) {
                           return info.param == SortImpl::kScalar ? "Scalar" : "Vector";
                         });

// --- event primitives ----------------------------------------------------------

TEST_F(PrimitivesTest, SegmentSplitsByWindow) {
  UArray* in = MakeEvents({
      {.ts_ms = 50, .key = 1, .value = 10},
      {.ts_ms = 1500, .key = 2, .value = 20},
      {.ts_ms = 999, .key = 3, .value = 30},
      {.ts_ms = 2100, .key = 4, .value = 40},
  });
  auto result = PrimSegment(ctx_, *in, SlidingWindowFn{1000, 1000});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ((*result)[0].window_index, 0u);
  EXPECT_EQ((*result)[0].events->size(), 2u);
  EXPECT_EQ((*result)[1].window_index, 1u);
  EXPECT_EQ((*result)[1].events->size(), 1u);
  EXPECT_EQ((*result)[2].window_index, 2u);
  // Window 0 preserves arrival order.
  auto w0 = (*result)[0].events->Span<Event>();
  EXPECT_EQ(w0[0].key, 1u);
  EXPECT_EQ(w0[1].key, 3u);
}

TEST_F(PrimitivesTest, SegmentEmptyInput) {
  UArray* in = MakeEvents({});
  auto result = PrimSegment(ctx_, *in, SlidingWindowFn{1000, 1000});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(PrimitivesTest, SegmentRejectsZeroWindow) {
  UArray* in = MakeEvents({{.ts_ms = 1, .key = 1, .value = 1}});
  EXPECT_EQ(PrimSegment(ctx_, *in, SlidingWindowFn{0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, SegmentRefusesABatchSpanningTooManyWindows) {
  // Event times are remote input: at a 1-ms slide, times 0 and UINT32_MAX in one frame would
  // size Segment's per-window bookkeeping at ~4G entries. Refused before anything is
  // allocated; a batch exactly at the bound still segments.
  constexpr EventTimeMs kMax = std::numeric_limits<EventTimeMs>::max();
  UArray* wide = MakeEvents({{.ts_ms = 0, .key = 1, .value = 1}, {.ts_ms = kMax, .key = 2}});
  const size_t arrays_before = alloc_.stats().live_arrays;
  EXPECT_EQ(PrimSegment(ctx_, *wide, SlidingWindowFn{1, 1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc_.stats().live_arrays, arrays_before);

  const auto last = static_cast<EventTimeMs>(kMaxSegmentWindowSpan - 1);
  UArray* at_bound = MakeEvents({{.ts_ms = 0, .key = 1}, {.ts_ms = last, .key = 2}});
  auto result = PrimSegment(ctx_, *at_bound, SlidingWindowFn{1, 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[1].window_index, last);
}

// --- Segment differential test --------------------------------------------------
//
// PrimSegment computes window indices with reciprocal multiplies and caches the time span of
// the current window pair. The oracle below is the plain division-per-event algorithm over
// SlidingWindowFn; both must agree on window indices, per-window bytes and lane placement. (Its
// window loops run on 64-bit counters: with slide 1, window UINT32_MAX exists.)

Result<std::vector<SegmentOutput>> ReferenceSegment(const PrimitiveContext& ctx,
                                                    const UArray& events,
                                                    const SlidingWindowFn& window_fn) {
  const size_t stride = events.elem_size();
  const uint8_t* base = events.data();
  const size_t n = events.size();
  std::vector<SegmentOutput> outputs;
  if (n == 0) {
    return outputs;
  }
  auto ts_of = [base, stride](size_t i) {
    EventTimeMs ts;
    std::memcpy(&ts, base + i * stride, sizeof(ts));
    return ts;
  };
  uint32_t min_idx = std::numeric_limits<uint32_t>::max();
  uint32_t max_idx = 0;
  for (size_t i = 0; i < n; ++i) {
    min_idx = std::min(min_idx, window_fn.FirstWindow(ts_of(i)));
    max_idx = std::max(max_idx, window_fn.LastWindow(ts_of(i)));
  }
  std::vector<size_t> counts(static_cast<size_t>(max_idx - min_idx) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint64_t w = window_fn.FirstWindow(ts_of(i)); w <= window_fn.LastWindow(ts_of(i));
         ++w) {
      ++counts[w - min_idx];
    }
  }
  std::vector<uint8_t*> cursors(counts.size(), nullptr);
  uint32_t lane_offset = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    PrimitiveContext out_ctx = ctx;
    if (out_ctx.hint.kind == PlacementHint::Kind::kConsumedInParallel) {
      out_ctx.hint.parallel_lane += lane_offset++;
    }
    SBT_ASSIGN_OR_RETURN(UArray * out, out_ctx.NewOutput(stride));
    SBT_ASSIGN_OR_RETURN(uint8_t * dst, out->AppendUninitialized(counts[i]));
    cursors[i] = dst;
    outputs.push_back(SegmentOutput{min_idx + static_cast<uint32_t>(i), out});
  }
  for (size_t i = 0; i < n; ++i) {
    for (uint64_t w = window_fn.FirstWindow(ts_of(i)); w <= window_fn.LastWindow(ts_of(i));
         ++w) {
      std::memcpy(cursors[w - min_idx], base + i * stride, stride);
      cursors[w - min_idx] += stride;
    }
  }
  for (SegmentOutput& o : outputs) {
    o.events->Produce();
  }
  return outputs;
}

// One output as the test observes it. Lanes are made visible by pre-seeding every lane the
// segment may use with its own uGroup: an output lands in the group of the lane it was hinted
// to, so the group id and slot pin the lane down.
struct ObservedOutput {
  uint32_t window_index = 0;
  uint64_t array_id = 0;
  uint64_t group_id = 0;
  size_t offset_in_group = 0;
  std::vector<uint8_t> bytes;

  bool operator==(const ObservedOutput&) const = default;
};

constexpr uint32_t kSegmentTestLaneBase = 100;

using SegmentFn = Result<std::vector<SegmentOutput>> (*)(const PrimitiveContext&, const UArray&,
                                                          const SlidingWindowFn&);

std::vector<ObservedOutput> RunSegment(SegmentFn segment, const std::vector<uint8_t>& raw,
                                       size_t stride, const SlidingWindowFn& fn) {
  TzPartitionConfig config = TestConfig();
  config.group_reserve_bytes = 1u << 20;
  SecureWorld world(config);
  UArrayAllocator alloc(&world);
  // One lane per non-empty window.
  std::set<uint32_t> windows;
  for (size_t i = 0; i < raw.size(); i += stride) {
    EventTimeMs t;
    std::memcpy(&t, raw.data() + i, sizeof(t));
    for (uint64_t w = fn.FirstWindow(t); w <= fn.LastWindow(t); ++w) {
      windows.insert(static_cast<uint32_t>(w));
    }
  }
  for (size_t lane = 0; lane < windows.size(); ++lane) {
    auto seed = alloc.Create(
        stride, UArrayScope::kStreaming,
        PlacementHint::Parallel(kSegmentTestLaneBase + static_cast<uint32_t>(lane)));
    EXPECT_TRUE(seed.ok());
    (*seed)->Produce();
  }
  auto input = alloc.Create(stride, UArrayScope::kStreaming);
  EXPECT_TRUE(input.ok());
  EXPECT_TRUE((*input)->Append(raw.data(), raw.size()).ok());
  (*input)->Produce();

  PrimitiveContext ctx;
  ctx.alloc = &alloc;
  ctx.hint = PlacementHint::Parallel(kSegmentTestLaneBase);
  auto result = segment(ctx, **input, fn);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<ObservedOutput> observed;
  if (!result.ok()) {
    return observed;
  }
  for (const SegmentOutput& o : *result) {
    const uint8_t* data = o.events->data();
    observed.push_back(ObservedOutput{
        .window_index = o.window_index,
        .array_id = o.events->id(),
        .group_id = o.events->group()->id(),
        .offset_in_group = o.events->offset_in_group(),
        .bytes = std::vector<uint8_t>(data, data + o.events->size() * stride),
    });
  }
  return observed;
}

// Events of `stride` bytes with the given times and random payload bytes.
std::vector<uint8_t> EventBytes(const std::vector<EventTimeMs>& times, size_t stride,
                                uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> raw(times.size() * stride);
  for (uint8_t& b : raw) {
    b = static_cast<uint8_t>(rng.Next32());
  }
  for (size_t i = 0; i < times.size(); ++i) {
    std::memcpy(raw.data() + i * stride, &times[i], sizeof(EventTimeMs));
  }
  return raw;
}

// Timestamp layouts over `span_windows` slides starting at `origin`.
std::vector<std::vector<EventTimeMs>> TimeOrders(const SlidingWindowFn& fn, uint64_t origin,
                                                 uint32_t span_windows, uint64_t seed) {
  Xoshiro256 rng(seed);
  const uint64_t span = static_cast<uint64_t>(span_windows) * fn.slide_ms;
  const uint64_t limit = std::min<uint64_t>(origin + span, std::numeric_limits<uint32_t>::max());
  std::vector<EventTimeMs> in_order;
  for (int i = 0; i < 400; ++i) {
    in_order.push_back(static_cast<EventTimeMs>(origin + rng.NextBelow(limit - origin + 1)));
  }
  std::sort(in_order.begin(), in_order.end());
  std::vector<EventTimeMs> shuffled = in_order;
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.NextBelow(i + 1)]);
  }
  std::vector<EventTimeMs> descending(in_order.rbegin(), in_order.rend());
  std::vector<EventTimeMs> one_per_window;
  for (uint64_t t = origin; t <= limit; t += fn.slide_ms) {
    one_per_window.push_back(static_cast<EventTimeMs>(t));
  }
  return {in_order, shuffled, descending, one_per_window};
}

TEST(SegmentDifferentialTest, MatchesDivisionReference) {
  const SlidingWindowFn fns[] = {
      {1000, 1000}, {7, 7}, {1, 1},     // tumbling (slide 1 takes the divide-by-one path)
      {1000, 250},  {4, 1}, {7, 1},     // sliding, size/slide 4 and 7
      {7, 4},       {1000, 300},        // sliding, size not a multiple of slide
  };
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  uint64_t seed = 1;
  for (const SlidingWindowFn& fn : fns) {
    // Edge times next to the epoch, the first window boundaries and the top of the range.
    const std::vector<EventTimeMs> edges = {
        0, fn.size_ms - 1, fn.size_ms, fn.size_ms + 1, fn.slide_ms - 1, fn.slide_ms, 0,
        fn.size_ms, 2 * fn.size_ms + fn.slide_ms};
    const std::vector<EventTimeMs> top = {kMax, kMax - 1, kMax - fn.size_ms, kMax,
                                          kMax - fn.slide_ms, kMax - 2 * fn.size_ms + 1};
    std::vector<std::vector<EventTimeMs>> batches = {edges, top};
    for (uint64_t origin : {uint64_t{0}, uint64_t{fn.size_ms} * 1000 + 3,
                            uint64_t{kMax} - uint64_t{40} * fn.slide_ms}) {
      for (auto& order : TimeOrders(fn, origin, 40, ++seed)) {
        batches.push_back(std::move(order));
      }
    }
    for (const size_t stride : {sizeof(Event), sizeof(PowerEvent)}) {
      for (size_t b = 0; b < batches.size(); ++b) {
        const std::vector<uint8_t> raw = EventBytes(batches[b], stride, ++seed);
        const auto expected = RunSegment(&ReferenceSegment, raw, stride, fn);
        const auto actual = RunSegment(&PrimSegment, raw, stride, fn);
        ASSERT_FALSE(expected.empty());
        EXPECT_TRUE(actual == expected)
            << "size " << fn.size_ms << " slide " << fn.slide_ms << " stride " << stride
            << " batch " << b;
      }
    }
  }
}

TEST_F(PrimitivesTest, FilterBandKeepsHalfOpenRange) {
  UArray* in = MakeEvents({
      {.ts_ms = 0, .key = 1, .value = 5},
      {.ts_ms = 0, .key = 2, .value = 10},
      {.ts_ms = 0, .key = 3, .value = 15},
      {.ts_ms = 0, .key = 4, .value = 20},
  });
  auto out = PrimFilterBand(ctx_, *in, 10, 20);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<Event>();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].value, 10);
  EXPECT_EQ(span[1].value, 15);
}

TEST_F(PrimitivesTest, FilterBandLargeInputCrossesChunks) {
  std::vector<Event> events;
  for (int i = 0; i < 50000; ++i) {
    events.push_back({.ts_ms = 0, .key = static_cast<uint32_t>(i), .value = i % 100});
  }
  UArray* in = MakeEvents(events);
  auto out = PrimFilterBand(ctx_, *in, 0, 50);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->size(), 25000u);
}

TEST_F(PrimitivesTest, SelectByKey) {
  UArray* in = MakeEvents({
      {.ts_ms = 0, .key = 7, .value = 1},
      {.ts_ms = 0, .key = 8, .value = 2},
      {.ts_ms = 0, .key = 7, .value = 3},
  });
  auto out = PrimSelect(ctx_, *in, 7);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<Event>();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].value, 1);
  EXPECT_EQ(span[1].value, 3);
}

TEST_F(PrimitivesTest, ProjectPacksKeyValue) {
  UArray* in = MakeEvents({{.ts_ms = 123, .key = 5, .value = -9}});
  auto out = PrimProject(ctx_, *in);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<PackedKV>();
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(UnpackKey(span[0]), 5u);
  EXPECT_EQ(UnpackValue(span[0]), -9);
}

TEST_F(PrimitivesTest, ScaleMultipliesValues) {
  UArray* in = MakeEvents({{.ts_ms = 1, .key = 2, .value = 3}});
  auto out = PrimScale(ctx_, *in, -4);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->Span<Event>()[0].value, -12);
  EXPECT_EQ((*out)->Span<Event>()[0].ts_ms, 1u);
}

TEST_F(PrimitivesTest, SampleEveryNth) {
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back({.ts_ms = 0, .key = 0, .value = i});
  }
  UArray* in = MakeEvents(events);
  auto out = PrimSample(ctx_, *in, 3);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<Event>();
  ASSERT_EQ(span.size(), 4u);
  EXPECT_EQ(span[0].value, 0);
  EXPECT_EQ(span[3].value, 9);
  EXPECT_EQ(PrimSample(ctx_, *in, 0).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, MinMaxAndEmpty) {
  UArray* in = MakeEvents({
      {.ts_ms = 0, .key = 0, .value = 7},
      {.ts_ms = 0, .key = 0, .value = -3},
      {.ts_ms = 0, .key = 0, .value = 12},
  });
  auto out = PrimMinMax(ctx_, *in);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<int32_t>();
  EXPECT_EQ(span[0], -3);
  EXPECT_EQ(span[1], 12);

  UArray* empty = MakeEvents({});
  auto out2 = PrimMinMax(ctx_, *empty);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ((*out2)->Span<int32_t>()[0], INT32_MAX);
  EXPECT_EQ((*out2)->Span<int32_t>()[1], INT32_MIN);
}

TEST_F(PrimitivesTest, HistogramBucketsAndClamps) {
  UArray* in = MakeEvents({
      {.ts_ms = 0, .key = 0, .value = -100},  // clamps to bucket 0
      {.ts_ms = 0, .key = 0, .value = 5},     // bucket 0
      {.ts_ms = 0, .key = 0, .value = 15},    // bucket 1
      {.ts_ms = 0, .key = 0, .value = 999},   // clamps to last bucket
  });
  auto out = PrimHistogram(ctx_, *in, 0, 10, 3);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<uint64_t>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], 2u);
  EXPECT_EQ(span[1], 1u);
  EXPECT_EQ(span[2], 1u);
}

TEST_F(PrimitivesTest, SumAndCount) {
  UArray* in = MakeEvents({
      {.ts_ms = 0, .key = 0, .value = 10},
      {.ts_ms = 0, .key = 0, .value = -4},
  });
  auto sum = PrimSum(ctx_, *in);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ((*sum)->Span<int64_t>()[0], 6);
  auto cnt = PrimCount(ctx_, *in);
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ((*cnt)->Span<uint64_t>()[0], 2u);
}

// --- kv primitives ---------------------------------------------------------------

TEST_F(PrimitivesTest, SortProducesAscendingKV) {
  Xoshiro256 rng(1);
  std::vector<std::pair<uint32_t, int32_t>> kvs;
  for (int i = 0; i < 5000; ++i) {
    kvs.push_back({rng.Next32() % 50, static_cast<int32_t>(rng.Next32())});
  }
  UArray* in = MakeKV(kvs);
  auto out = PrimSort(ctx_, *in);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(IsSortedI64((*out)->Span<int64_t>()));
  EXPECT_EQ((*out)->size(), kvs.size());
  // Sorting must not drop or invent records: multiset equality with reference.
  std::vector<PackedKV> expected;
  for (const auto& [k, v] : kvs) {
    expected.push_back(PackKV(k, v));
  }
  std::sort(expected.begin(), expected.end());
  auto span = (*out)->Span<PackedKV>();
  EXPECT_TRUE(std::equal(span.begin(), span.end(), expected.begin()));
}

TEST_F(PrimitivesTest, SortRetiresItsScratch) {
  UArray* in = MakeKV({{3, 1}, {1, 2}, {2, 3}});
  const size_t live_before = alloc_.stats().live_arrays;
  auto out = PrimSort(ctx_, *in);
  ASSERT_TRUE(out.ok());
  // Only the output should remain live beyond the input.
  EXPECT_EQ(alloc_.stats().live_arrays, live_before + 1);
}

TEST_F(PrimitivesTest, MergeTwoSortedArrays) {
  UArray* a = MakeKV({{1, 1}, {3, 3}, {5, 5}}, /*sorted=*/true);
  UArray* b = MakeKV({{2, 2}, {4, 4}}, /*sorted=*/true);
  auto out = PrimMerge(ctx_, *a, *b);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<PackedKV>();
  ASSERT_EQ(span.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(UnpackKey(span[i]), i + 1);
  }
}

TEST_F(PrimitivesTest, MergeNManyArrays) {
  Xoshiro256 rng(4);
  std::vector<const UArray*> inputs;
  std::vector<PackedKV> all;
  for (int i = 0; i < 9; ++i) {
    std::vector<std::pair<uint32_t, int32_t>> kvs;
    for (int j = 0; j < 100; ++j) {
      kvs.push_back({rng.Next32() % 1000, static_cast<int32_t>(j)});
    }
    UArray* arr = MakeKV(kvs, /*sorted=*/true);
    inputs.push_back(arr);
    auto span = arr->Span<PackedKV>();
    all.insert(all.end(), span.begin(), span.end());
  }
  auto out = PrimMergeN(ctx_, inputs);
  ASSERT_TRUE(out.ok());
  std::sort(all.begin(), all.end());
  auto span = (*out)->Span<PackedKV>();
  ASSERT_EQ(span.size(), all.size());
  EXPECT_TRUE(std::equal(span.begin(), span.end(), all.begin()));
  EXPECT_TRUE((*out)->state() == UArrayState::kProduced);
}

TEST_F(PrimitivesTest, SumCntAggregatesPerKey) {
  UArray* in = MakeKV({{1, 10}, {1, 20}, {2, 5}, {3, 1}, {3, -1}}, /*sorted=*/true);
  auto out = PrimSumCnt(ctx_, *in);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeySumCount>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], (KeySumCount{1, 2, 30}));
  EXPECT_EQ(span[1], (KeySumCount{2, 1, 5}));
  EXPECT_EQ(span[2], (KeySumCount{3, 2, 0}));
}

TEST_F(PrimitivesTest, SumCntMatchesReferenceOnRandomData) {
  Xoshiro256 rng(8);
  std::vector<std::pair<uint32_t, int32_t>> kvs;
  std::map<uint32_t, std::pair<uint32_t, int64_t>> ref;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t k = rng.Next32() % 200;
    const int32_t v = static_cast<int32_t>(rng.Next32() % 1000) - 500;
    kvs.push_back({k, v});
    ref[k].first += 1;
    ref[k].second += v;
  }
  UArray* in = MakeKV(kvs, /*sorted=*/true);
  auto out = PrimSumCnt(ctx_, *in);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeySumCount>();
  ASSERT_EQ(span.size(), ref.size());
  size_t i = 0;
  for (const auto& [k, sc] : ref) {
    EXPECT_EQ(span[i].key, k);
    EXPECT_EQ(span[i].count, sc.first);
    EXPECT_EQ(span[i].sum, sc.second);
    ++i;
  }
}

TEST_F(PrimitivesTest, MergeSumCntAddsMatchingKeys) {
  UArray* a = MakeKV({}, true);  // build KeySumCount arrays manually
  (void)a;
  auto mk = [&](std::vector<KeySumCount> cells) {
    auto arr = alloc_.Create(sizeof(KeySumCount), UArrayScope::kStreaming);
    EXPECT_TRUE(arr.ok());
    EXPECT_TRUE((*arr)->Append(cells.data(), cells.size() * sizeof(KeySumCount)).ok());
    (*arr)->Produce();
    return *arr;
  };
  UArray* x = mk({{1, 2, 10}, {3, 1, 5}});
  UArray* y = mk({{1, 1, 7}, {2, 4, 8}});
  auto out = PrimMergeSumCnt(ctx_, *x, *y);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeySumCount>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], (KeySumCount{1, 3, 17}));
  EXPECT_EQ(span[1], (KeySumCount{2, 4, 8}));
  EXPECT_EQ(span[2], (KeySumCount{3, 1, 5}));
}

TEST_F(PrimitivesTest, TopKTakesLargestPerKey) {
  UArray* in = MakeKV({{1, 5}, {1, 9}, {1, 2}, {2, 4}}, /*sorted=*/true);
  auto out = PrimTopKPerKey(ctx_, *in, 2);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<PackedKV>();
  ASSERT_EQ(span.size(), 3u);  // key 1 contributes 2 (5, 9); key 2 contributes 1 (4)
  EXPECT_EQ(UnpackValue(span[0]), 5);
  EXPECT_EQ(UnpackValue(span[1]), 9);
  EXPECT_EQ(UnpackValue(span[2]), 4);
  EXPECT_EQ(PrimTopKPerKey(ctx_, *in, 0).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, UniqueAndCountPerKey) {
  UArray* in = MakeKV({{1, 1}, {1, 2}, {4, 1}, {9, 0}, {9, 9}, {9, 10}}, /*sorted=*/true);
  auto uniq = PrimUnique(ctx_, *in);
  ASSERT_TRUE(uniq.ok());
  auto uspan = (*uniq)->Span<uint32_t>();
  ASSERT_EQ(uspan.size(), 3u);
  EXPECT_EQ(uspan[0], 1u);
  EXPECT_EQ(uspan[1], 4u);
  EXPECT_EQ(uspan[2], 9u);

  auto counts = PrimCountPerKey(ctx_, *in);
  ASSERT_TRUE(counts.ok());
  auto cspan = (*counts)->Span<KeyValue>();
  ASSERT_EQ(cspan.size(), 3u);
  EXPECT_EQ(cspan[0], (KeyValue{.key = 1, .value = 2}));
  EXPECT_EQ(cspan[2], (KeyValue{.key = 9, .value = 3}));
}

// Fills this thread's stack below the caller with a marker, so a primitive called next reuses
// dirty stack slots — exactly what a worker thread hands its next chain.
[[gnu::noinline]] void DirtyStack() {
  volatile uint8_t junk[16384];
  for (size_t i = 0; i < sizeof(junk); ++i) {
    junk[i] = 0xab;
  }
}

// KeyValue cells are egressed byte for byte. Bytes 4..7 (between key and value) must be zero
// whatever the producing thread's stack held; as compiler padding they used to carry stack
// bytes, so equal results encrypted to different blobs depending on which worker ran them.
TEST_F(PrimitivesTest, KeyValueCellsCarryNoStackBytes) {
  UArray* in = MakeKV({{1, 1}, {1, 2}, {4, 1}, {9, 0}, {9, 9}}, /*sorted=*/true);
  const auto expect_zero_gap = [](const UArray& out) {
    ASSERT_EQ(out.elem_size(), sizeof(KeyValue));
    for (size_t off = 0; off < out.size_bytes(); off += sizeof(KeyValue)) {
      for (size_t b = sizeof(uint32_t); b < offsetof(KeyValue, value); ++b) {
        EXPECT_EQ(out.data()[off + b], 0u) << "cell " << off / sizeof(KeyValue) << " byte " << b;
      }
    }
  };
  DirtyStack();
  auto counts = PrimCountPerKey(ctx_, *in);
  ASSERT_TRUE(counts.ok());
  expect_zero_gap(**counts);
  DirtyStack();
  auto medians = PrimMedianPerKey(ctx_, *in);
  ASSERT_TRUE(medians.ok());
  expect_zero_gap(**medians);
  auto sumcnt = PrimSumCnt(ctx_, *in);
  ASSERT_TRUE(sumcnt.ok());
  DirtyStack();
  auto avg = PrimAverage(ctx_, **sumcnt);
  ASSERT_TRUE(avg.ok());
  expect_zero_gap(**avg);
  DirtyStack();
  auto ewma = PrimEwma(ctx_, **counts, **avg, 1, 2);
  ASSERT_TRUE(ewma.ok());
  expect_zero_gap(**ewma);
}

TEST_F(PrimitivesTest, MedianPerKeyLowerMedian) {
  UArray* in = MakeKV({{1, 10}, {1, 20}, {1, 30}, {2, 4}, {2, 8}}, /*sorted=*/true);
  auto out = PrimMedianPerKey(ctx_, *in);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeyValue>();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0], (KeyValue{.key = 1, .value = 20}));
  EXPECT_EQ(span[1], (KeyValue{.key = 2, .value = 4}));  // lower median of {4, 8}
}

TEST_F(PrimitivesTest, DedupDropsConsecutiveDuplicates) {
  UArray* in = MakeKV({{1, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 2}}, /*sorted=*/true);
  auto out = PrimDedup(ctx_, *in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->size(), 3u);
}

TEST_F(PrimitivesTest, JoinEmitsCrossProductPerKey) {
  UArray* l = MakeKV({{1, 10}, {2, 20}, {2, 21}, {4, 40}}, /*sorted=*/true);
  UArray* r = MakeKV({{2, 200}, {2, 201}, {3, 300}, {4, 400}}, /*sorted=*/true);
  auto out = PrimJoin(ctx_, *l, *r);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<JoinRow>();
  // key 2: 2x2 = 4 rows; key 4: 1 row.
  ASSERT_EQ(span.size(), 5u);
  EXPECT_EQ(span[0], (JoinRow{2, 20, 200}));
  EXPECT_EQ(span[1], (JoinRow{2, 20, 201}));
  EXPECT_EQ(span[2], (JoinRow{2, 21, 200}));
  EXPECT_EQ(span[3], (JoinRow{2, 21, 201}));
  EXPECT_EQ(span[4], (JoinRow{4, 40, 400}));
}

TEST_F(PrimitivesTest, JoinDisjointKeysIsEmpty) {
  UArray* l = MakeKV({{1, 1}}, true);
  UArray* r = MakeKV({{2, 2}}, true);
  auto out = PrimJoin(ctx_, *l, *r);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE((*out)->empty());
}

TEST_F(PrimitivesTest, AverageDividesSumByCount) {
  auto arr = alloc_.Create(sizeof(KeySumCount), UArrayScope::kStreaming);
  ASSERT_TRUE(arr.ok());
  std::vector<KeySumCount> cells = {{1, 4, 100}, {2, 3, 10}};
  ASSERT_TRUE((*arr)->Append(cells.data(), cells.size() * sizeof(KeySumCount)).ok());
  (*arr)->Produce();
  auto out = PrimAverage(ctx_, **arr);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeyValue>();
  EXPECT_EQ(span[0], (KeyValue{.key = 1, .value = 25}));
  EXPECT_EQ(span[1], (KeyValue{.key = 2, .value = 3}));
}

TEST_F(PrimitivesTest, EwmaBlendsStateAndObservation) {
  auto mk = [&](std::vector<KeyValue> cells) {
    auto arr = alloc_.Create(sizeof(KeyValue), UArrayScope::kState);
    EXPECT_TRUE(arr.ok());
    EXPECT_TRUE((*arr)->Append(cells.data(), cells.size() * sizeof(KeyValue)).ok());
    (*arr)->Produce();
    return *arr;
  };
  UArray* state = mk({{.key = 1, .value = 100}, {.key = 3, .value = 50}});
  UArray* obs = mk({{.key = 1, .value = 200}, {.key = 2, .value = 80}});
  // alpha = 1/2: key1 -> 150; key2 seeds at 80; key3 carries 50.
  auto out = PrimEwma(ctx_, *state, *obs, 1, 2);
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<KeyValue>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], (KeyValue{.key = 1, .value = 150}));
  EXPECT_EQ(span[1], (KeyValue{.key = 2, .value = 80}));
  EXPECT_EQ(span[2], (KeyValue{.key = 3, .value = 50}));
  EXPECT_EQ(PrimEwma(ctx_, *state, *obs, 3, 2).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, ConcatPreservesOrder) {
  UArray* a = MakeKV({{1, 1}}, true);
  UArray* b = MakeKV({{9, 9}}, true);
  auto out = PrimConcat(ctx_, {a, b});
  ASSERT_TRUE(out.ok());
  auto span = (*out)->Span<PackedKV>();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(UnpackKey(span[0]), 1u);
  EXPECT_EQ(UnpackKey(span[1]), 9u);
  EXPECT_EQ(PrimConcat(ctx_, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, ConcatRejectsMixedElementSizes) {
  UArray* a = MakeKV({{1, 1}}, true);
  UArray* e = MakeEvents({{.ts_ms = 0, .key = 1, .value = 1}});
  EXPECT_EQ(PrimConcat(ctx_, {a, e}).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, CompactCopiesBytes) {
  UArray* a = MakeKV({{1, 2}, {3, 4}}, true);
  auto out = PrimCompact(ctx_, *a);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->size(), 2u);
  EXPECT_NE((*out)->data(), a->data());
  EXPECT_EQ(0, memcmp((*out)->data(), a->data(), a->size_bytes()));
}

TEST_F(PrimitivesTest, PrimitivesRejectOpenInputs) {
  auto open = alloc_.Create(sizeof(PackedKV), UArrayScope::kStreaming);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(PrimSort(ctx_, **open).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(PrimCount(ctx_, **open).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PrimitivesTest, PrimitivesRejectWrongElementSize) {
  UArray* events = MakeEvents({{.ts_ms = 0, .key = 1, .value = 1}});
  EXPECT_EQ(PrimSort(ctx_, *events).status().code(), StatusCode::kInvalidArgument);
  UArray* kv = MakeKV({{1, 1}});
  EXPECT_EQ(PrimFilterBand(ctx_, *kv, 0, 1).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrimitivesTest, DeterministicOutputs) {
  // Same inputs -> byte-identical outputs (required by audit replay).
  Xoshiro256 rng(21);
  std::vector<std::pair<uint32_t, int32_t>> kvs;
  for (int i = 0; i < 3000; ++i) {
    kvs.push_back({rng.Next32() % 64, static_cast<int32_t>(rng.Next32())});
  }
  UArray* in1 = MakeKV(kvs);
  UArray* in2 = MakeKV(kvs);
  auto s1 = PrimSort(ctx_, *in1);
  auto s2 = PrimSort(ctx_, *in2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_EQ((*s1)->size_bytes(), (*s2)->size_bytes());
  EXPECT_EQ(0, memcmp((*s1)->data(), (*s2)->data(), (*s1)->size_bytes()));

  auto a1 = PrimSumCnt(ctx_, **s1);
  auto a2 = PrimSumCnt(ctx_, **s2);
  ASSERT_TRUE(a1.ok() && a2.ok());
  ASSERT_EQ((*a1)->size_bytes(), (*a2)->size_bytes());
  EXPECT_EQ(0, memcmp((*a1)->data(), (*a2)->data(), (*a1)->size_bytes()));
}

// Regression: an undersized audit-id reservation must fail the chain, not silently fall back
// to the shared counter. The old fallback kept the run alive but made audit ids depend on the
// execution schedule, breaking the worker-count byte-equivalence invariant (DESIGN.md §7).
TEST_F(PrimitivesTest, ExhaustedIdReservationFailsInsteadOfFallingBack) {
  obs::Counter* exhausted =
      obs::MetricsRegistry::Global().GetCounter("sbt_audit_reservation_exhausted_total");
  const uint64_t exhausted_before = exhausted->Value();

  // One reserved id for a chain that produces two audit-visible outputs.
  IdReservation ids{.next = 1000, .end = 1001};
  ctx_.ids = &ids;
  UArray* events = MakeEvents({{.ts_ms = 0, .key = 1, .value = 5},
                               {.ts_ms = 1, .key = 2, .value = 6}});

  auto first = PrimFilterBand(ctx_, *events, INT32_MIN, INT32_MAX);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->id(), 1000u);  // the reserved id, independent of the shared counter

  auto second = PrimFilterBand(ctx_, *events, INT32_MIN, INT32_MAX);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  EXPECT_EQ(exhausted->Value(), exhausted_before + 1);

  // Temporaries never touch the reservation, so scratch allocations still succeed after the
  // failure (the chain's cleanup path can run).
  EXPECT_TRUE(ctx_.NewTemp(sizeof(Event)).ok());
  ctx_.ids = nullptr;
}

}  // namespace
}  // namespace sbt
