// Deterministic fail-point injection.
//
// Recovery and exhaustion paths are where bugs hide, and waiting for a 1MB pool to genuinely
// run dry (or a queue to genuinely fill) makes those paths timing-dependent. A fail point is a
// named hook compiled into a production code path; tests arm it with a deterministic schedule
// (skip N hits, fail the next M, optionally repeat — or a seeded Bernoulli draw) and the hook
// fires exactly where a real failure would surface. Disarmed fail points cost one relaxed
// atomic load, so the hooks stay in release builds.
//
// Hooked sites:
//   secure_world.alloc_frame    SecureWorld::AllocRun stops at this frame (once per frame, in
//                               order) and returns kResourceExhausted
//   channel.try_push            BoundedChannel<T>::TryPush returns false (queue-full signal)
//   world_switch.fault          WorldSwitchGate entry is aborted and retried (extra entry burn)
//   data_plane.checkpoint_stall DataPlane::Checkpoint spins between its refusal decision and
//                               the seal (race-window widener for the admission-lock tests)
//
// Tests use testing::ScopedFailPoint (tests/testing/testing.h) for RAII arm/disarm.

#ifndef SRC_COMMON_FAILPOINT_H_
#define SRC_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string_view>

namespace sbt {

// One fail point's firing schedule. Both forms are fully deterministic.
struct FailPointSpec {
  // Counted schedule: let `skip` hits pass, fail the next `fail` hits, then — if `period` is
  // nonzero — repeat that pattern every `period` hits.
  uint64_t skip = 0;
  uint64_t fail = 1;
  uint64_t period = 0;

  // Seeded-random schedule (used instead when `prob_den` > 0): each hit fails with probability
  // prob_num/prob_den, drawn from a SplitMix64 stream seeded with `seed`.
  uint64_t prob_num = 0;
  uint64_t prob_den = 0;
  uint64_t seed = 0;
};

class FailPoints {
 public:
  static void Arm(std::string_view name, FailPointSpec spec);
  static void Disarm(std::string_view name);
  static void DisarmAll();

  // Total hits observed at `name` since it was armed (0 when not armed).
  static uint64_t Hits(std::string_view name);

  // Slow path of SBT_FAIL_POINT: records a hit and evaluates the schedule.
  static bool ShouldFail(std::string_view name);

  // Fast-path gate: number of currently armed fail points.
  static std::atomic<uint64_t> armed_count;
};

}  // namespace sbt

// True when the named fail point is armed and its schedule fires on this hit.
#define SBT_FAIL_POINT(name)                                          \
  (::sbt::FailPoints::armed_count.load(std::memory_order_relaxed) != 0 && \
   ::sbt::FailPoints::ShouldFail(name))

#endif  // SRC_COMMON_FAILPOINT_H_
