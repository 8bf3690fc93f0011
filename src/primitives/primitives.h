// The trusted primitives: stateless, single-threaded, synchronization-oblivious functions over
// uArrays (paper §5). They are the *only* computations allowed to touch analytics data. Each
// primitive reads produced (immutable) input uArrays and emits newly produced output uArrays via
// the allocator; it never blocks, never takes locks, and never shares mutable state — all
// concurrency lives in the untrusted control plane, which may run many primitives in parallel
// over one cache-coherent secure address space.
//
// Conventions:
//  - "sorted" inputs mean ascending PackedKV order (key asc, value asc); primitives requiring
//    sorted input validate cheaply in debug builds and document the requirement here.
//  - Outputs are always Produced before being returned.
//  - Failure modes: kResourceExhausted (secure memory gone -> backpressure),
//    kInvalidArgument / kFailedPrecondition (malformed request from the untrusted side).

#ifndef SRC_PRIMITIVES_PRIMITIVES_H_
#define SRC_PRIMITIVES_PRIMITIVES_H_

#include <cstdint>
#include <vector>

#include "src/common/event.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/primitives/kv.h"
#include "src/primitives/registry.h"
#include "src/primitives/vec_sort.h"
#include "src/uarray/allocator.h"

namespace sbt {

// Join output row: one match of left and right values under one key.
struct JoinRow {
  uint32_t key = 0;
  int32_t left = 0;
  int32_t right = 0;

  bool operator==(const JoinRow&) const = default;
};
static_assert(sizeof(JoinRow) == 12);

// Per-invocation context: where outputs are placed and which ids they take.
struct PrimitiveContext {
  UArrayAllocator* alloc = nullptr;
  PlacementHint hint = PlacementHint::None();
  uint64_t generation = 0;
  // When set, outputs take the next id from this pre-reserved range (deterministic audit ids
  // under out-of-order parallel execution); exhausted or absent, the shared counter decides.
  IdReservation* ids = nullptr;

  Result<UArray*> NewOutput(size_t elem_size, UArrayScope scope = UArrayScope::kStreaming) const {
    // Temporaries never consume reserved audit ids: the allocator keeps them in a disjoint
    // scratch id space, so their (data-dependent) count cannot shift audit-visible ids.
    // `ids->end != 0` distinguishes a ticket that reserved nothing (control-thread execution;
    // the shared counter is the intended source) from one whose reservation ran dry.
    if (scope != UArrayScope::kTemporary && ids != nullptr && ids->end != 0) {
      if (const uint64_t id = ids->Take(); id != 0) {
        return alloc->CreateWithId(id, elem_size, scope, hint, generation);
      }
      // An exhausted reservation means the caller under-counted this chain's outputs (a
      // primitive produced more audit-visible arrays than its command reserved). Taking an id
      // from the shared counter instead would keep the engine running but make audit ids
      // schedule-dependent, silently breaking the worker-count byte-equivalence invariant
      // (DESIGN.md §7). Fail the chain instead: the caller retires the ticket cleanly, no
      // output escapes, and every already-planned reservation keeps its deterministic ids.
      static obs::Counter* exhausted = obs::MetricsRegistry::Global().GetCounter(
          "sbt_audit_reservation_exhausted_total");
      exhausted->Add(1);
      return Internal(
          "audit-id reservation exhausted mid-chain (command reserved fewer audit-visible "
          "outputs than the primitive produced)");
    }
    return alloc->Create(elem_size, scope, hint, generation);
  }
  Result<UArray*> NewTemp(size_t elem_size) const {
    return alloc->Create(elem_size, UArrayScope::kTemporary, PlacementHint::None(), generation);
  }
};

// --- Event-array primitives -------------------------------------------------

// kSegment: splits `events` by (possibly sliding) windows. Returns one (window index, uArray)
// pair per non-empty window, in ascending window order. Events need not arrive time-sorted.
// With slide < size an event is replicated into every window covering it.
struct SegmentOutput {
  uint32_t window_index = 0;
  UArray* events = nullptr;  // Event elements, produced
};
// Widest window-index span (first window of the earliest event to last window of the latest)
// one Segment call accepts; a wider batch fails with kInvalidArgument before anything is
// allocated. Event times come from remote devices, and Segment's bookkeeping is 16 bytes per
// spanned window, so without a bound one frame holding times 0 and UINT32_MAX at a 1-ms slide
// would ask for ~64 GB. 2^16 windows caps the bookkeeping at 1 MB, yet is far above any real
// frame: at the 1-s windows every shipped pipeline uses, a frame would have to carry 18 hours
// of event time, while generator and device frames cover one or two windows.
inline constexpr uint64_t kMaxSegmentWindowSpan = uint64_t{1} << 16;
Result<std::vector<SegmentOutput>> PrimSegment(const PrimitiveContext& ctx, const UArray& events,
                                               const SlidingWindowFn& window_fn);

// kFilterBand: keeps events with lo <= value < hi (paper's Filter benchmark).
Result<UArray*> PrimFilterBand(const PrimitiveContext& ctx, const UArray& events, int32_t lo,
                               int32_t hi);

// kSelect: keeps events whose key equals `key`.
Result<UArray*> PrimSelect(const PrimitiveContext& ctx, const UArray& events, uint32_t key);

// kProject: Event -> PackedKV (drops the timestamp; used after windowing).
Result<UArray*> PrimProject(const PrimitiveContext& ctx, const UArray& events);

// kScale: value *= factor (an example certified UDF-style transform).
Result<UArray*> PrimScale(const PrimitiveContext& ctx, const UArray& events, int32_t factor);

// kSample: keeps every `stride`-th event starting at index 0. stride >= 1.
Result<UArray*> PrimSample(const PrimitiveContext& ctx, const UArray& events, uint32_t stride);

// kMinMax: emits a 2-element int32 uArray [min, max] over values; [INT32_MAX, INT32_MIN] if empty.
Result<UArray*> PrimMinMax(const PrimitiveContext& ctx, const UArray& events);

// kHistogram: bucket counts (uint64) over values in [base, base + bucket_width * buckets).
// Out-of-range values are clamped into the first/last bucket.
Result<UArray*> PrimHistogram(const PrimitiveContext& ctx, const UArray& events, int32_t base,
                              uint32_t bucket_width, uint32_t buckets);

// kSum -> single int64. Event input sums the value field; int64 input sums raw addends
// (combining per-batch partial sums at window close).
Result<UArray*> PrimSum(const PrimitiveContext& ctx, const UArray& input);

// kCount: element count of any uArray -> single uint64.
Result<UArray*> PrimCount(const PrimitiveContext& ctx, const UArray& input);

// --- PackedKV primitives (GroupBy family) -----------------------------------

// kSort: ascending PackedKV sort; the vectorized core of GroupBy.
Result<UArray*> PrimSort(const PrimitiveContext& ctx, const UArray& kv);

// kMerge: merges two sorted uArrays into one sorted output.
Result<UArray*> PrimMerge(const PrimitiveContext& ctx, const UArray& a, const UArray& b,
                          UArrayScope scope = UArrayScope::kStreaming);

// kMergeN: merges N sorted uArrays (iterated binary vectorized merges).
Result<UArray*> PrimMergeN(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs);

// kSumCnt: per-key sum and count over a sorted input -> KeySumCount, key-ascending.
Result<UArray*> PrimSumCnt(const PrimitiveContext& ctx, const UArray& sorted_kv);

// kMergeSumCnt: merges two key-ascending KeySumCount arrays, adding cells with equal keys.
Result<UArray*> PrimMergeSumCnt(const PrimitiveContext& ctx, const UArray& a, const UArray& b);

// kTopK: the K largest values per key from a sorted input; output sorted, ascending.
Result<UArray*> PrimTopKPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv, uint32_t k);

// kUnique: distinct keys (uint32, ascending) of a sorted input.
Result<UArray*> PrimUnique(const PrimitiveContext& ctx, const UArray& sorted_kv);

// kCountPerKey: per-key counts -> KeyValue{key, count}, key-ascending.
Result<UArray*> PrimCountPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv);

// kMedian: per-key median value (lower median) -> KeyValue, key-ascending.
Result<UArray*> PrimMedianPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv);

// kDedup: removes consecutive duplicates from a sorted input.
Result<UArray*> PrimDedup(const PrimitiveContext& ctx, const UArray& sorted_kv);

// kJoin: equi-join two sorted inputs; emits the cross product of matching runs per key.
Result<UArray*> PrimJoin(const PrimitiveContext& ctx, const UArray& left, const UArray& right);

// --- Aggregate-state primitives ----------------------------------------------

// kAverage: KeySumCount -> KeyValue{key, sum/count}, key order preserved.
Result<UArray*> PrimAverage(const PrimitiveContext& ctx, const UArray& sumcnt);

// kEwma: new_state[k] = alpha_num/alpha_den * obs[k] + (1 - alpha_num/alpha_den) * state[k].
// `state` and `obs` are key-ascending KeyValue arrays; keys present in only one side carry over.
// Fixed-point alpha avoids floating point inside the TEE.
Result<UArray*> PrimEwma(const PrimitiveContext& ctx, const UArray& state, const UArray& obs,
                         uint32_t alpha_num, uint32_t alpha_den);

// kRekey: coarsens keys by shifting them right (e.g. (house<<16|plug) -> house). Accepts
// PackedKV or KeyValue input; emits PackedKV. Output order is the input order (re-sort after).
Result<UArray*> PrimRekey(const PrimitiveContext& ctx, const UArray& input, uint32_t shift);

// kAboveMean: keeps KeyValue cells whose value strictly exceeds the arithmetic mean of all
// values in the array (the Power benchmark's "high-power plugs" test). Empty input -> empty.
Result<UArray*> PrimAboveMean(const PrimitiveContext& ctx, const UArray& cells);

// --- Generic primitives -------------------------------------------------------

// kConcat: concatenates same-element-size uArrays in order.
Result<UArray*> PrimConcat(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs);

// kCompact: byte-copies a produced uArray into a freshly placed one.
Result<UArray*> PrimCompact(const PrimitiveContext& ctx, const UArray& input);

}  // namespace sbt

#endif  // SRC_PRIMITIVES_PRIMITIVES_H_
