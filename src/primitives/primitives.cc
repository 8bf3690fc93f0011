#include "src/primitives/primitives.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/logging.h"
#include "src/primitives/simd_kernels.h"

namespace sbt {
namespace {

// Chunk size (elements) for append-as-you-filter primitives: amortizes the per-append state
// check while keeping the stack footprint small.
constexpr size_t kChunkElems = 1024;

Status RequireProduced(const UArray& a, const char* what) {
  if (a.state() == UArrayState::kOpen) {
    return FailedPrecondition(std::string(what) + ": input uArray is still open");
  }
  return OkStatus();
}

Status RequireElemSize(const UArray& a, size_t elem, const char* what) {
  if (a.elem_size() != elem) {
    return InvalidArgument(std::string(what) + ": unexpected element size");
  }
  return OkStatus();
}

#ifndef NDEBUG
bool IsSortedKV(const UArray& kv) { return IsSortedI64(kv.Span<int64_t>()); }
#endif

// Small helper for producing a scalar output (1..n fixed elements).
template <typename T>
Result<UArray*> EmitScalars(const PrimitiveContext& ctx, std::initializer_list<T> values) {
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(T)));
  for (const T& v : values) {
    SBT_RETURN_IF_ERROR(out->AppendValue(v));
  }
  out->Produce();
  return out;
}

// Copies selected events through a stack chunk buffer.
template <typename T, typename Pred>
Result<UArray*> FilterCopy(const PrimitiveContext& ctx, const UArray& input, Pred keep) {
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(T)));
  T chunk[kChunkElems];
  size_t fill = 0;
  for (const T& e : input.Span<T>()) {
    if (keep(e)) {
      chunk[fill++] = e;
      if (fill == kChunkElems) {
        SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
        fill = 0;
      }
    }
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
  }
  out->Produce();
  return out;
}

// Caches the (first, last) window pair of the event-time span [lo, hi) the last lookup fell
// in. Sliding-window membership only changes at window boundaries, so an in-order stream pays
// SlidingWindowFn's divides once per boundary instead of once per event.
class WindowSpanCache {
 public:
  explicit WindowSpanCache(const SlidingWindowFn& fn) : fn_(fn) {}

  // Returns true when `t` left the cached span; first/last then hold t's windows.
  bool Locate(EventTimeMs t) {
    if (t >= lo_ && t < hi_) {
      return false;
    }
    const uint64_t size = fn_.size_ms;
    const uint64_t slide = fn_.slide_ms;
    first = fn_.FirstWindow(t);
    last = fn_.LastWindow(t);
    // `last` holds on [last*slide, (last+1)*slide); `first` on [(first-1)*slide + size,
    // first*slide + size), or on [0, size) for window 0.
    lo_ = std::max(first == 0 ? 0 : (first - 1) * slide + size, last * slide);
    hi_ = std::min(first * slide + size, (uint64_t{last} + 1) * slide);
    return true;
  }

  uint32_t first = 0;
  uint32_t last = 0;

 private:
  SlidingWindowFn fn_;
  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
};

// Segment over events of `kStride` bytes whose first field is the 32-bit event time.
template <size_t kStride>
Result<std::vector<SegmentOutput>> SegmentEvents(const PrimitiveContext& ctx,
                                                 const uint8_t* base, size_t n,
                                                 const SlidingWindowFn& window_fn) {
  auto ts_of = [](const uint8_t* event) {
    EventTimeMs ts;
    std::memcpy(&ts, event, sizeof(ts));
    return ts;
  };
  std::vector<SegmentOutput> outputs;
  if (n == 0) {
    return outputs;
  }

  // Pass 1: per-window counts over the (small, dense) index range of this batch, counts[w -
  // lo_idx]. Window indices never decrease as time grows, so the batch's time range bounds
  // its window range. With sliding windows each event counts toward every window covering it.
  // The scan branches rather than using std::min/max: at -O3 without SSE4.1, GCC vectorizes
  // unsigned min/max over a 12-byte stride into a loop about 4x slower than this scalar one.
  EventTimeMs min_t = ts_of(base);
  EventTimeMs max_t = min_t;
  for (size_t i = 1; i < n; ++i) {
    const EventTimeMs ts = ts_of(base + i * kStride);
    if (ts < min_t) {
      min_t = ts;
    } else if (ts > max_t) {
      max_t = ts;
    }
  }
  const uint32_t lo_idx = window_fn.FirstWindow(min_t);
  const uint64_t windows = uint64_t{window_fn.LastWindow(max_t)} - lo_idx + 1;
  if (windows > kMaxSegmentWindowSpan) {
    return InvalidArgument("Segment: batch spans more windows than kMaxSegmentWindowSpan");
  }
  std::vector<size_t> counts(windows, 0);
  {
    WindowSpanCache span(window_fn);
    size_t* row = nullptr;
    uint32_t width = 0;
    for (size_t i = 0; i < n; ++i) {
      if (span.Locate(ts_of(base + i * kStride))) {
        row = counts.data() + (span.first - lo_idx);
        width = span.last - span.first + 1;
      }
      for (uint32_t k = 0; k < width; ++k) {
        ++row[k];
      }
    }
  }

  // Pass 2: allocate one output per non-empty window and scatter sequentially. A
  // consumed-in-parallel hint applies per output (the k outputs go to k different consumers),
  // so each gets its own lane (paper §6.2 "(||k) prompts ... separate uGroups").
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
    SBT_ASSIGN_OR_RETURN(UArray * out, out_ctx.NewOutput(kStride));
    SBT_ASSIGN_OR_RETURN(uint8_t * dst, out->AppendUninitialized(counts[i]));
    cursors[i] = dst;
    outputs.push_back(SegmentOutput{lo_idx + static_cast<uint32_t>(i), out});
  }
  WindowSpanCache span(window_fn);
  uint8_t** row = nullptr;
  uint32_t width = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* event = base + i * kStride;
    if (span.Locate(ts_of(event))) {
      row = cursors.data() + (span.first - lo_idx);
      width = span.last - span.first + 1;
    }
    for (uint32_t k = 0; k < width; ++k) {
      std::memcpy(row[k], event, kStride);
      row[k] += kStride;
    }
  }
  for (SegmentOutput& o : outputs) {
    o.events->Produce();
  }
  return outputs;
}

}  // namespace

// --- Event-array primitives --------------------------------------------------

Result<std::vector<SegmentOutput>> PrimSegment(const PrimitiveContext& ctx, const UArray& events,
                                               const SlidingWindowFn& window_fn) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Segment"));
  // Works on any fixed-layout event whose first field is the 32-bit event time (Event and
  // PowerEvent both qualify).
  const size_t stride = events.elem_size();
  if (stride != sizeof(Event) && stride != sizeof(PowerEvent)) {
    return InvalidArgument("Segment: unsupported event layout");
  }
  if (!window_fn.Valid()) {
    return InvalidArgument("Segment: invalid window spec (need 0 < slide <= size)");
  }
  return stride == sizeof(Event)
             ? SegmentEvents<sizeof(Event)>(ctx, events.data(), events.size(), window_fn)
             : SegmentEvents<sizeof(PowerEvent)>(ctx, events.data(), events.size(), window_fn);
}

Result<UArray*> PrimFilterBand(const PrimitiveContext& ctx, const UArray& events, int32_t lo,
                               int32_t hi) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "FilterBand"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "FilterBand"));
  // Vectorized band compare (simd_kernels.h); kept events are bit-copies either way, so the
  // output is byte-identical to the scalar FilterCopy path at every dispatch level.
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(Event)));
  const auto in = events.Span<Event>();
  Event chunk[kChunkElems];
  for (size_t i = 0; i < in.size(); i += kChunkElems) {
    const size_t n = std::min(kChunkElems, in.size() - i);
    const size_t kept = simd::FilterBandEvents(in.data() + i, n, lo, hi, chunk);
    if (kept > 0) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, kept * sizeof(Event)));
    }
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimSelect(const PrimitiveContext& ctx, const UArray& events, uint32_t key) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Select"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Select"));
  return FilterCopy<Event>(ctx, events, [key](const Event& e) { return e.key == key; });
}

Result<UArray*> PrimProject(const PrimitiveContext& ctx, const UArray& events) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Project"));
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  if (events.elem_size() == sizeof(Event)) {
    const auto in = events.Span<Event>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const Event& e : in) {
      *dst++ = PackEvent(e);
    }
  } else if (events.elem_size() == sizeof(PowerEvent)) {
    // Power-grid layout: key is the (house, plug) pair, value the power sample.
    const auto in = events.Span<PowerEvent>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const PowerEvent& e : in) {
      *dst++ = PackKV((e.house << 16) | (e.plug & 0xffffu), e.power);
    }
  } else {
    return InvalidArgument("Project: unsupported event layout");
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimScale(const PrimitiveContext& ctx, const UArray& events, int32_t factor) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Scale"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Scale"));
  const auto in = events.Span<Event>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(Event)));
  SBT_ASSIGN_OR_RETURN(Event * dst, out->AppendUninitializedAs<Event>(in.size()));
  for (const Event& e : in) {
    *dst = e;
    dst->value = e.value * factor;
    ++dst;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimSample(const PrimitiveContext& ctx, const UArray& events, uint32_t stride) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Sample"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Sample"));
  if (stride == 0) {
    return InvalidArgument("Sample: stride must be >= 1");
  }
  const auto in = events.Span<Event>();
  const size_t n = (in.size() + stride - 1) / stride;
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(Event)));
  SBT_ASSIGN_OR_RETURN(Event * dst, out->AppendUninitializedAs<Event>(n));
  for (size_t i = 0; i < in.size(); i += stride) {
    *dst++ = in[i];
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMinMax(const PrimitiveContext& ctx, const UArray& events) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "MinMax"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "MinMax"));
  int32_t mn = std::numeric_limits<int32_t>::max();
  int32_t mx = std::numeric_limits<int32_t>::min();
  for (const Event& e : events.Span<Event>()) {
    mn = std::min(mn, e.value);
    mx = std::max(mx, e.value);
  }
  return EmitScalars<int32_t>(ctx, {mn, mx});
}

Result<UArray*> PrimHistogram(const PrimitiveContext& ctx, const UArray& events, int32_t base,
                              uint32_t bucket_width, uint32_t buckets) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Histogram"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Histogram"));
  if (bucket_width == 0 || buckets == 0) {
    return InvalidArgument("Histogram: zero bucket width or count");
  }
  std::vector<uint64_t> counts(buckets, 0);
  for (const Event& e : events.Span<Event>()) {
    int64_t b = (static_cast<int64_t>(e.value) - base) / bucket_width;
    b = std::clamp<int64_t>(b, 0, buckets - 1);
    ++counts[static_cast<size_t>(b)];
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(uint64_t)));
  SBT_RETURN_IF_ERROR(out->Append(counts.data(), counts.size() * sizeof(uint64_t)));
  out->Produce();
  return out;
}

Result<UArray*> PrimSum(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Sum"));
  int64_t sum = 0;
  if (input.elem_size() == sizeof(Event)) {
    const auto in = input.Span<Event>();
    sum = simd::SumEventValues(in.data(), in.size());
  } else if (input.elem_size() == sizeof(int64_t)) {
    // Raw 64-bit addends: partial sums being combined at window close.
    const auto in = input.Span<int64_t>();
    sum = simd::SumI64(in.data(), in.size());
  } else {
    return InvalidArgument("Sum: input must be Event or int64 partials");
  }
  return EmitScalars<int64_t>(ctx, {sum});
}

Result<UArray*> PrimCount(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Count"));
  return EmitScalars<uint64_t>(ctx, {static_cast<uint64_t>(input.size())});
}

// --- PackedKV primitives ------------------------------------------------------

Result<UArray*> PrimSort(const PrimitiveContext& ctx, const UArray& kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(kv, "Sort"));
  SBT_RETURN_IF_ERROR(RequireElemSize(kv, sizeof(PackedKV), "Sort"));
  const auto in = kv.Span<int64_t>();

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  SBT_ASSIGN_OR_RETURN(int64_t * dst, out->AppendUninitializedAs<int64_t>(in.size()));
  std::memcpy(dst, in.data(), in.size_bytes());

  // Scratch lives in a temporary uArray so even transient data stays in secure memory.
  SBT_ASSIGN_OR_RETURN(UArray * scratch, ctx.NewTemp(sizeof(PackedKV)));
  auto scratch_buf = scratch->AppendUninitializedAs<int64_t>(in.size());
  if (!scratch_buf.ok()) {
    ctx.alloc->Retire(scratch);
    return scratch_buf.status();
  }
  SortI64(std::span<int64_t>(dst, in.size()), std::span<int64_t>(*scratch_buf, in.size()));
  scratch->Produce();
  ctx.alloc->Retire(scratch);
  out->Produce();
  return out;
}

Result<UArray*> PrimMerge(const PrimitiveContext& ctx, const UArray& a, const UArray& b,
                          UArrayScope scope) {
  SBT_RETURN_IF_ERROR(RequireProduced(a, "Merge"));
  SBT_RETURN_IF_ERROR(RequireProduced(b, "Merge"));
  SBT_RETURN_IF_ERROR(RequireElemSize(a, sizeof(PackedKV), "Merge"));
  SBT_RETURN_IF_ERROR(RequireElemSize(b, sizeof(PackedKV), "Merge"));
  SBT_UARRAY_DCHECK(IsSortedKV(a) && IsSortedKV(b));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV), scope));
  SBT_ASSIGN_OR_RETURN(int64_t * dst, out->AppendUninitializedAs<int64_t>(a.size() + b.size()));
  MergeI64(a.Span<int64_t>(), b.Span<int64_t>(), std::span<int64_t>(dst, a.size() + b.size()));
  out->Produce();
  return out;
}

Result<UArray*> PrimMergeN(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs) {
  if (inputs.empty()) {
    return InvalidArgument("MergeN: no inputs");
  }
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(RequireProduced(*in, "MergeN"));
    SBT_RETURN_IF_ERROR(RequireElemSize(*in, sizeof(PackedKV), "MergeN"));
  }
  if (inputs.size() == 1) {
    return PrimCompact(ctx, *inputs[0]);
  }

  // Tournament of binary merges; intermediates are temporaries retired as soon as consumed.
  std::vector<const UArray*> round(inputs.begin(), inputs.end());
  std::vector<UArray*> intermediates;
  while (round.size() > 1) {
    std::vector<const UArray*> next;
    const bool final_round = round.size() <= 2;
    for (size_t i = 0; i + 1 < round.size(); i += 2) {
      PrimitiveContext sub = ctx;
      if (!final_round) {
        sub.hint = PlacementHint::None();
      }
      // Non-final intermediates are scratch: they retire before MergeN returns and must not
      // consume audit-visible ids (their count depends on the input fan-in).
      auto merged = final_round
                        ? PrimMerge(ctx, *round[i], *round[i + 1])
                        : PrimMerge(sub, *round[i], *round[i + 1], UArrayScope::kTemporary);
      if (!merged.ok()) {
        for (UArray* tmp : intermediates) {
          ctx.alloc->Retire(tmp);
        }
        return merged.status();
      }
      next.push_back(*merged);
      if (!final_round) {
        intermediates.push_back(*merged);
      }
    }
    if (round.size() % 2 == 1) {
      next.push_back(round.back());
    }
    round = std::move(next);
  }

  UArray* result = const_cast<UArray*>(round[0]);
  for (UArray* tmp : intermediates) {
    if (tmp != result) {
      ctx.alloc->Retire(tmp);
    }
  }
  return result;
}

Result<UArray*> PrimSumCnt(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "SumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "SumCnt"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeySumCount)));
  const auto in = sorted_kv.Span<PackedKV>();
  KeySumCount chunk[kChunkElems];
  size_t fill = 0;
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    KeySumCount cell{key, 0, 0};
    while (i < in.size() && UnpackKey(in[i]) == key) {
      cell.sum += UnpackValue(in[i]);
      ++cell.count;
      ++i;
    }
    chunk[fill++] = cell;
    if (fill == kChunkElems) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
      fill = 0;
    }
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMergeSumCnt(const PrimitiveContext& ctx, const UArray& a, const UArray& b) {
  SBT_RETURN_IF_ERROR(RequireProduced(a, "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireProduced(b, "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(a, sizeof(KeySumCount), "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(b, sizeof(KeySumCount), "MergeSumCnt"));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeySumCount)));
  const auto sa = a.Span<KeySumCount>();
  const auto sb = b.Span<KeySumCount>();
  KeySumCount chunk[kChunkElems];
  size_t fill = 0;
  auto push = [&](const KeySumCount& cell) -> Status {
    chunk[fill++] = cell;
    if (fill == kChunkElems) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
      fill = 0;
    }
    return OkStatus();
  };

  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() || j < sb.size()) {
    KeySumCount cell;
    if (j >= sb.size() || (i < sa.size() && sa[i].key < sb[j].key)) {
      cell = sa[i++];
    } else if (i >= sa.size() || sb[j].key < sa[i].key) {
      cell = sb[j++];
    } else {
      cell = sa[i++];
      cell.sum += sb[j].sum;
      cell.count += sb[j].count;
      ++j;
    }
    SBT_RETURN_IF_ERROR(push(cell));
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimTopKPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv, uint32_t k) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "TopK"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "TopK"));
  if (k == 0) {
    return InvalidArgument("TopK: k must be >= 1");
  }
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    size_t end = i;
    while (end < in.size() && UnpackKey(in[end]) == key) {
      ++end;
    }
    // Values ascend within the run; the K largest are the run's tail.
    const size_t take = std::min<size_t>(k, end - i);
    SBT_RETURN_IF_ERROR(out->Append(&in[end - take], take * sizeof(PackedKV)));
    i = end;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimUnique(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Unique"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Unique"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  // Vectorized run-boundary scan (simd_kernels.h): a key is emitted exactly where it differs
  // from its predecessor, with the carry crossing chunk borders.
  const auto in = sorted_kv.Span<int64_t>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(uint32_t)));
  uint32_t chunk[kChunkElems];
  uint32_t prev_key = 0;
  bool has_prev = false;
  for (size_t i = 0; i < in.size(); i += kChunkElems) {
    const size_t n = std::min(kChunkElems, in.size() - i);
    const size_t emitted =
        simd::UniqueKeysPacked(in.data() + i, n, has_prev ? &prev_key : nullptr, chunk);
    if (emitted > 0) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, emitted * sizeof(uint32_t)));
    }
    prev_key = UnpackKey(in[i + n - 1]);
    has_prev = true;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimCountPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "CountPerKey"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "CountPerKey"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    int64_t count = 0;
    while (i < in.size() && UnpackKey(in[i]) == key) {
      ++count;
      ++i;
    }
    SBT_RETURN_IF_ERROR(out->AppendValue(KeyValue{.key = key, .value = count}));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMedianPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Median"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Median"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    size_t end = i;
    while (end < in.size() && UnpackKey(in[end]) == key) {
      ++end;
    }
    // Lower median of the ascending run.
    const PackedKV med = in[i + (end - i - 1) / 2];
    SBT_RETURN_IF_ERROR(out->AppendValue(KeyValue{.key = key, .value = UnpackValue(med)}));
    i = end;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimDedup(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Dedup"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Dedup"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  // Vectorized adjacent-unique compaction (simd_kernels.h); kept KVs are bit-copies, so the
  // output matches the scalar first/prev filter byte-for-byte at every dispatch level.
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  const auto in = sorted_kv.Span<int64_t>();
  int64_t chunk[kChunkElems];
  int64_t prev = 0;
  bool has_prev = false;
  for (size_t i = 0; i < in.size(); i += kChunkElems) {
    const size_t n = std::min(kChunkElems, in.size() - i);
    const size_t kept = simd::DedupI64(in.data() + i, n, has_prev ? &prev : nullptr, chunk);
    if (kept > 0) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, kept * sizeof(PackedKV)));
    }
    prev = in[i + n - 1];
    has_prev = true;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimJoin(const PrimitiveContext& ctx, const UArray& left, const UArray& right) {
  SBT_RETURN_IF_ERROR(RequireProduced(left, "Join"));
  SBT_RETURN_IF_ERROR(RequireProduced(right, "Join"));
  SBT_RETURN_IF_ERROR(RequireElemSize(left, sizeof(PackedKV), "Join"));
  SBT_RETURN_IF_ERROR(RequireElemSize(right, sizeof(PackedKV), "Join"));
  SBT_UARRAY_DCHECK(IsSortedKV(left) && IsSortedKV(right));

  const auto l = left.Span<PackedKV>();
  const auto r = right.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(JoinRow)));
  JoinRow chunk[kChunkElems];
  size_t fill = 0;

  size_t i = 0;
  size_t j = 0;
  while (i < l.size() && j < r.size()) {
    const uint32_t lk = UnpackKey(l[i]);
    const uint32_t rk = UnpackKey(r[j]);
    if (lk < rk) {
      ++i;
      continue;
    }
    if (rk < lk) {
      ++j;
      continue;
    }
    // Equal keys: emit the cross product of the two runs.
    size_t lend = i;
    while (lend < l.size() && UnpackKey(l[lend]) == lk) {
      ++lend;
    }
    size_t rend = j;
    while (rend < r.size() && UnpackKey(r[rend]) == rk) {
      ++rend;
    }
    for (size_t a = i; a < lend; ++a) {
      for (size_t b = j; b < rend; ++b) {
        chunk[fill++] = JoinRow{lk, UnpackValue(l[a]), UnpackValue(r[b])};
        if (fill == kChunkElems) {
          SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(JoinRow)));
          fill = 0;
        }
      }
    }
    i = lend;
    j = rend;
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(JoinRow)));
  }
  out->Produce();
  return out;
}

// --- Aggregate-state primitives -------------------------------------------------

Result<UArray*> PrimAverage(const PrimitiveContext& ctx, const UArray& sumcnt) {
  SBT_RETURN_IF_ERROR(RequireProduced(sumcnt, "Average"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sumcnt, sizeof(KeySumCount), "Average"));
  const auto in = sumcnt.Span<KeySumCount>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  SBT_ASSIGN_OR_RETURN(KeyValue * dst, out->AppendUninitializedAs<KeyValue>(in.size()));
  for (const KeySumCount& c : in) {
    *dst++ = KeyValue{.key = c.key, .value = c.count == 0 ? 0 : c.sum / c.count};
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimEwma(const PrimitiveContext& ctx, const UArray& state, const UArray& obs,
                         uint32_t alpha_num, uint32_t alpha_den) {
  SBT_RETURN_IF_ERROR(RequireProduced(state, "Ewma"));
  SBT_RETURN_IF_ERROR(RequireProduced(obs, "Ewma"));
  SBT_RETURN_IF_ERROR(RequireElemSize(state, sizeof(KeyValue), "Ewma"));
  SBT_RETURN_IF_ERROR(RequireElemSize(obs, sizeof(KeyValue), "Ewma"));
  if (alpha_den == 0 || alpha_num > alpha_den) {
    return InvalidArgument("Ewma: require 0 <= alpha_num/alpha_den <= 1");
  }

  const auto s = state.Span<KeyValue>();
  const auto o = obs.Span<KeyValue>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue), UArrayScope::kState));
  size_t i = 0;
  size_t j = 0;
  while (i < s.size() || j < o.size()) {
    KeyValue cell;
    if (j >= o.size() || (i < s.size() && s[i].key < o[j].key)) {
      cell = s[i++];  // no new observation: state carries over
    } else if (i >= s.size() || o[j].key < s[i].key) {
      cell = o[j++];  // first observation seeds the state
    } else {
      const int64_t blended =
          (static_cast<int64_t>(alpha_num) * o[j].value +
           static_cast<int64_t>(alpha_den - alpha_num) * s[i].value) /
          static_cast<int64_t>(alpha_den);
      cell = KeyValue{.key = s[i].key, .value = blended};
      ++i;
      ++j;
    }
    SBT_RETURN_IF_ERROR(out->AppendValue(cell));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimRekey(const PrimitiveContext& ctx, const UArray& input, uint32_t shift) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Rekey"));
  if (shift > 31) {
    return InvalidArgument("Rekey: shift must be <= 31");
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  if (input.elem_size() == sizeof(PackedKV)) {
    const auto in = input.Span<PackedKV>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const PackedKV kv : in) {
      *dst++ = PackKV(UnpackKey(kv) >> shift, UnpackValue(kv));
    }
  } else if (input.elem_size() == sizeof(KeyValue)) {
    const auto in = input.Span<KeyValue>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const KeyValue& c : in) {
      *dst++ = PackKV(c.key >> shift, static_cast<int32_t>(c.value));
    }
  } else {
    return InvalidArgument("Rekey: input must be PackedKV or KeyValue");
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimAboveMean(const PrimitiveContext& ctx, const UArray& cells) {
  SBT_RETURN_IF_ERROR(RequireProduced(cells, "AboveMean"));
  SBT_RETURN_IF_ERROR(RequireElemSize(cells, sizeof(KeyValue), "AboveMean"));
  const auto in = cells.Span<KeyValue>();
  int64_t sum = 0;
  for (const KeyValue& c : in) {
    sum += c.value;
  }
  // Compare value * n > sum to avoid division; empty input keeps nothing.
  const int64_t n = static_cast<int64_t>(in.size());
  return FilterCopy<KeyValue>(ctx, cells,
                              [sum, n](const KeyValue& c) { return c.value * n > sum; });
}

// --- Generic primitives -----------------------------------------------------------

Result<UArray*> PrimConcat(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs) {
  if (inputs.empty()) {
    return InvalidArgument("Concat: no inputs");
  }
  const size_t elem = inputs[0]->elem_size();
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(RequireProduced(*in, "Concat"));
    SBT_RETURN_IF_ERROR(RequireElemSize(*in, elem, "Concat"));
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(elem));
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(out->Append(in->data(), in->size_bytes()));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimCompact(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Compact"));
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(input.elem_size()));
  SBT_RETURN_IF_ERROR(out->Append(input.data(), input.size_bytes()));
  out->Produce();
  return out;
}

}  // namespace sbt
