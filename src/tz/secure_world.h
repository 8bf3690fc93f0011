// Emulated TrustZone secure world: physical secure DRAM, virtual ranges, on-demand paging.
//
// Mechanics (see DESIGN.md "substitutions"): the secure DRAM pool is a memfd sized to the
// TZASC-configured secure budget; "physical frames" are page-granule slices of that file.
// A VirtualRange reserves a large PROT_NONE anonymous region (emulating the TEE's huge private
// address space) and commits frames into it on demand. A commit takes every frame it is short
// in one allocation (the lowest run of adjacent free frames that fits, from a free-frame
// bitmap) and maps each run of adjacent frames with one populated MAP_FIXED mapping of the
// memfd: one syscall and no demand faults per run, where a real secure kernel would write the
// run's page-table entries.
// This gives the same observable behaviour the paper relies on:
//   - growth is in place (the reserved virtual range never moves),
//   - committed memory is bounded by the physical pool (backpressure on exhaustion),
//   - reclaim decommits pages (one PROT_NONE remap per span, so reclaimed memory is
//     inaccessible) and returns frames to the pool immediately.
//
// Thread safety: frame allocation/free is internally synchronized; a VirtualRange must be grown
// by a single producer at a time (which the uArray lifecycle guarantees: only the open uArray at
// a uGroup's tail grows), while another thread may reclaim its head concurrently.

#ifndef SRC_TZ_SECURE_WORLD_H_
#define SRC_TZ_SECURE_WORLD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/tz/tzasc.h"

namespace sbt {

class SecureWorld;

// A reserved secure virtual range with on-demand physical backing.
// Movable, not copyable. Destroying the range releases all its frames.
//
// Growth (EnsureBacked, by the open tail uArray's producer) and head reclaim (ReleaseHead, by
// the allocator holding its own mutex) run on different threads against shared commit
// bookkeeping, so every commit-state access synchronizes on a per-range mutex. The mutex never
// moves with the range: moves happen only during single-threaded setup.
class VirtualRange {
 public:
  VirtualRange() = default;
  VirtualRange(VirtualRange&& other) noexcept { *this = std::move(other); }
  VirtualRange& operator=(VirtualRange&& other) noexcept;
  VirtualRange(const VirtualRange&) = delete;
  VirtualRange& operator=(const VirtualRange&) = delete;
  ~VirtualRange();

  uint8_t* base() const { return base_; }
  size_t capacity() const { return capacity_; }
  bool valid() const { return base_ != nullptr; }

  // Bytes currently committed (backed by physical frames) from the start of the range.
  size_t committed_end() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return committed_end_;
  }
  // Bytes decommitted from the head (head-reclaim watermark).
  size_t committed_begin() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return committed_begin_;
  }

  // Ensures [committed_begin, end_offset) is backed. Grows in page granules.
  // Fails with kResourceExhausted when the physical pool is empty (backpressure trigger).
  Status EnsureBacked(size_t end_offset);

  // Decommits whole pages in [committed_begin, begin_offset) and returns their frames to the
  // pool. Used by the allocator's head-of-uGroup reclaim.
  void ReleaseHead(size_t begin_offset);

  // Releases everything.
  void ReleaseAll();

 private:
  friend class SecureWorld;

  VirtualRange(SecureWorld* world, uint8_t* base, size_t capacity)
      : world_(world), base_(base), capacity_(capacity) {}

  // Decommits [committed_begin_, begin_offset) with mu_ already held.
  void ReleaseHeadLocked(size_t begin_offset);

  SecureWorld* world_ = nullptr;
  uint8_t* base_ = nullptr;
  size_t capacity_ = 0;
  // Guards the commit bookkeeping below. Owned per object, never moved (see class comment).
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  size_t committed_begin_ = 0;
  size_t committed_end_ = 0;
  // Frame id backing each committed page slot; index = page_index - first_page.
  std::vector<uint32_t> frames_;
  size_t first_page_ = 0;  // page index of frames_[0]
};

// Snapshot of the secure world's memory accounting.
struct SecureMemoryStats {
  size_t pool_bytes = 0;        // total physical secure DRAM
  size_t committed_bytes = 0;   // currently backed
  size_t peak_committed = 0;    // high-water mark
  size_t reserved_virtual = 0;  // sum of live virtual reservations
  uint64_t page_faults = 0;     // pages committed on demand
  uint64_t reclaims = 0;        // pages decommitted
};

// The emulated secure world. One instance per engine.
class SecureWorld {
 public:
  explicit SecureWorld(const TzPartitionConfig& config);
  ~SecureWorld();

  SecureWorld(const SecureWorld&) = delete;
  SecureWorld& operator=(const SecureWorld&) = delete;

  const TzPartitionConfig& config() const { return config_; }
  size_t page_bytes() const { return config_.secure_page_bytes; }
  size_t pool_frames() const { return pool_frames_; }
  size_t free_frames() const;

  // Reserves a virtual range of `capacity` bytes (rounded up to page granule), with no physical
  // backing yet. Mirrors the paper's "reserve a range as large as total TEE DRAM per uGroup".
  Result<VirtualRange> Reserve(size_t capacity);

  // True iff `ptr` lies inside any live secure virtual reservation. Used to assert the
  // shared-nothing boundary: the data plane never exports such a pointer.
  bool IsSecureAddress(const void* ptr) const;

  SecureMemoryStats stats() const;

  // Fraction of the physical pool currently committed, for backpressure policy.
  double PoolUtilization() const;

 private:
  friend class VirtualRange;

  // Appends up to `n` free frames to `frames`, in ascending order: the lowest run of adjacent
  // free frames long enough, or the lowest free frames when no run is. Each frame passes the
  // secure_world.alloc_frame fail point in order; on an injected failure or an empty pool it
  // stops there and returns kResourceExhausted, keeping the frames taken before the failure.
  Status AllocRun(size_t n, std::vector<uint32_t>* frames);
  // Returns `n` frames to the pool.
  void FreeFrames(const uint32_t* frames, size_t n);
  // Maps the `n` adjacent frames starting at `first` at `addr` with one populated MAP_FIXED
  // mapping over the reservation.
  Status MapRun(uint32_t first, size_t n, uint8_t* addr);
  // Replaces the mappings in [addr, addr+bytes) with an inaccessible reservation.
  void UnmapSpan(uint8_t* addr, size_t bytes);
  void UnregisterRange(uint8_t* base, size_t capacity);

  TzPartitionConfig config_;
  int memfd_ = -1;
  size_t pool_frames_ = 0;

  mutable std::mutex mu_;
  // Free-frame bitmap: bit f % 64 of word f / 64 is set iff frame f is free.
  std::vector<uint64_t> free_bits_;
  size_t free_count_ = 0;
  struct LiveRange {
    uint8_t* base;
    size_t capacity;
  };
  std::vector<LiveRange> live_ranges_;

  std::atomic<size_t> committed_bytes_{0};
  std::atomic<size_t> peak_committed_{0};
  std::atomic<uint64_t> page_faults_{0};
  std::atomic<uint64_t> reclaims_{0};
};

}  // namespace sbt

#endif  // SRC_TZ_SECURE_WORLD_H_
