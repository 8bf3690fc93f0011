// Event record layouts.
//
// StreamBox-TZ processes fixed-layout POD events inside contiguous uArrays; there are no
// per-event heap objects anywhere in the data plane. The paper's standard event is 3 fields /
// 12 bytes; the Power Grid benchmark uses 4 fields / 16 bytes.

#ifndef SRC_COMMON_EVENT_H_
#define SRC_COMMON_EVENT_H_

#include <cstdint>
#include <type_traits>

#include "src/common/time.h"

namespace sbt {

// The generic telemetry event: timestamp + key + value (12 bytes, as in the paper).
struct Event {
  EventTimeMs ts_ms = 0;
  uint32_t key = 0;
  int32_t value = 0;

  bool operator==(const Event&) const = default;
};
static_assert(sizeof(Event) == 12, "Event must stay 12 bytes to match the paper's workloads");
static_assert(std::is_trivially_copyable_v<Event>);

// Power-grid event (DEBS'14-style): per-plug power sample (16 bytes, 4 fields).
struct PowerEvent {
  EventTimeMs ts_ms = 0;
  uint32_t house = 0;
  uint32_t plug = 0;
  int32_t power = 0;  // watts

  bool operator==(const PowerEvent&) const = default;
};
static_assert(sizeof(PowerEvent) == 16, "PowerEvent must stay 16 bytes (4 fields)");
static_assert(std::is_trivially_copyable_v<PowerEvent>);

// Key/value pair produced by aggregations (e.g. per-key sums within a window). The four bytes
// between key and value are an explicit, always-zero field rather than compiler padding:
// cells are egressed byte for byte, and padding would carry whatever the producing thread's
// stack held, so identical results could encrypt to different blobs. Build cells with
// designated initializers ({.key = k, .value = v}).
struct KeyValue {
  uint32_t key = 0;
  uint32_t reserved = 0;
  int64_t value = 0;

  bool operator==(const KeyValue&) const = default;
};
static_assert(sizeof(KeyValue) == 16 && std::has_unique_object_representations_v<KeyValue>,
              "KeyValue must have no padding: its bytes are egressed as-is");
static_assert(std::is_trivially_copyable_v<KeyValue>);

// Aggregate cell carrying sum and count, enabling exact averages after merging.
struct KeySumCount {
  uint32_t key = 0;
  uint32_t count = 0;
  int64_t sum = 0;

  bool operator==(const KeySumCount&) const = default;
};
static_assert(std::is_trivially_copyable_v<KeySumCount>);

// Ordering used throughout the sort-merge primitives: by key, then value, then time.
// Total order => deterministic primitive output (required for audit replay).
struct EventKeyOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    if (a.value != b.value) {
      return a.value < b.value;
    }
    return a.ts_ms < b.ts_ms;
  }
};

}  // namespace sbt

#endif  // SRC_COMMON_EVENT_H_
