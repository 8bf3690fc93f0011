#include "src/tz/secure_world.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <cstring>

#include "src/common/failpoint.h"
#include "src/common/logging.h"

#ifndef MFD_CLOEXEC
#define MFD_CLOEXEC 0x0001U
#endif

namespace sbt {
namespace {

// memfd_create via syscall for portability across libc versions.
int CreateMemfd(const char* name) {
#if defined(__linux__)
  return static_cast<int>(syscall(SYS_memfd_create, name, MFD_CLOEXEC));
#else
  (void)name;
  errno = ENOSYS;
  return -1;
#endif
}

}  // namespace

SecureWorld::SecureWorld(const TzPartitionConfig& config) : config_(config) {
  SBT_CHECK(config_.Valid());
  pool_frames_ = config_.secure_dram_bytes / config_.secure_page_bytes;

  memfd_ = CreateMemfd("sbt_secure_dram");
  SBT_CHECK(memfd_ >= 0);
  SBT_CHECK(ftruncate(memfd_, static_cast<off_t>(config_.secure_dram_bytes)) == 0);

  // Every frame starts free (see AllocRun for the lowest-fit policy).
  free_bits_.assign((pool_frames_ + 63) / 64, ~uint64_t{0});
  if (pool_frames_ % 64 != 0) {
    free_bits_.back() = (uint64_t{1} << (pool_frames_ % 64)) - 1;
  }
  free_count_ = pool_frames_;
}

SecureWorld::~SecureWorld() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SBT_CHECK(live_ranges_.empty() && "VirtualRanges must not outlive their SecureWorld");
  }
  if (memfd_ >= 0) {
    close(memfd_);
  }
}

size_t SecureWorld::free_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_count_;
}

Result<VirtualRange> SecureWorld::Reserve(size_t capacity) {
  const size_t page = page_bytes();
  const size_t rounded = (capacity + page - 1) / page * page;
  if (rounded == 0) {
    return InvalidArgument("cannot reserve an empty range");
  }

  void* base = mmap(nullptr, rounded, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1, 0);
  if (base == MAP_FAILED) {
    return ResourceExhausted("virtual address space reservation failed");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    live_ranges_.push_back(LiveRange{static_cast<uint8_t*>(base), rounded});
  }
  return VirtualRange(this, static_cast<uint8_t*>(base), rounded);
}

bool SecureWorld::IsSecureAddress(const void* ptr) const {
  const uint8_t* p = static_cast<const uint8_t*>(ptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const LiveRange& r : live_ranges_) {
    if (p >= r.base && p < r.base + r.capacity) {
      return true;
    }
  }
  return false;
}

SecureMemoryStats SecureWorld::stats() const {
  SecureMemoryStats s;
  s.pool_bytes = config_.secure_dram_bytes;
  s.committed_bytes = committed_bytes_.load(std::memory_order_relaxed);
  s.peak_committed = peak_committed_.load(std::memory_order_relaxed);
  s.page_faults = page_faults_.load(std::memory_order_relaxed);
  s.reclaims = reclaims_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const LiveRange& r : live_ranges_) {
      s.reserved_virtual += r.capacity;
    }
  }
  return s;
}

double SecureWorld::PoolUtilization() const {
  return static_cast<double>(committed_bytes_.load(std::memory_order_relaxed)) /
         static_cast<double>(config_.secure_dram_bytes);
}

Status SecureWorld::AllocRun(size_t n, std::vector<uint32_t>* frames) {
  std::lock_guard<std::mutex> lock(mu_);
  // Each frame passes the fail point and then the pool check, in order, so a failed request
  // keeps exactly the frames before the failure.
  Status status = OkStatus();
  size_t take = 0;
  for (; take < n; ++take) {
    if (SBT_FAIL_POINT("secure_world.alloc_frame")) {
      status = ResourceExhausted("secure DRAM pool exhausted (injected)");
      break;
    }
    if (take == free_count_) {
      status = ResourceExhausted("secure DRAM pool exhausted");
      break;
    }
  }
  if (take == 0) {
    return status;
  }
  auto is_free = [this](size_t f) { return ((free_bits_[f / 64] >> (f % 64)) & 1) != 0; };
  // Lowest fit: the lowest run of `take` free frames, so the request maps with one call. With
  // no such run, the lowest free frames.
  size_t start = 0;
  size_t run = 0;
  for (size_t f = start; f < pool_frames_ && run < take; ++f) {
    if (!is_free(f)) {
      run = 0;
    } else if (run++ == 0) {
      start = f;
    }
  }
  if (run < take) {
    start = 0;
  }
  for (size_t f = start, taken = 0; taken < take; ++f) {
    if (is_free(f)) {
      free_bits_[f / 64] &= ~(uint64_t{1} << (f % 64));
      frames->push_back(static_cast<uint32_t>(f));
      ++taken;
    }
  }
  free_count_ -= take;
  return status;
}

void SecureWorld::FreeFrames(const uint32_t* frames, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t frame = frames[i];
    SBT_CHECK(frame < pool_frames_);
    const uint64_t mask = uint64_t{1} << (frame % 64);
    SBT_CHECK((free_bits_[frame / 64] & mask) == 0 && "frame freed twice");
    free_bits_[frame / 64] |= mask;
  }
  free_count_ += n;
}

Status SecureWorld::MapRun(uint32_t first, size_t n, uint8_t* addr) {
  const size_t bytes = n * page_bytes();
  // MAP_POPULATE installs the run's page-table entries up front, so the first touch of a
  // freshly committed page takes no demand fault.
  void* mapped = mmap(addr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED | MAP_POPULATE,
                      memfd_, static_cast<off_t>(static_cast<uint64_t>(first) * page_bytes()));
  if (mapped == MAP_FAILED) {
    return Internal(std::string("secure page map failed: ") + std::strerror(errno));
  }
  const size_t committed =
      committed_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_committed_.load(std::memory_order_relaxed);
  while (committed > peak &&
         !peak_committed_.compare_exchange_weak(peak, committed, std::memory_order_relaxed)) {
  }
  page_faults_.fetch_add(n, std::memory_order_relaxed);
  return OkStatus();
}

void SecureWorld::UnmapSpan(uint8_t* addr, size_t bytes) {
  // Re-establish the inaccessible reservation so the range stays contiguous. One syscall per
  // reclaim span, not per page: in-TEE reclaim is a page-table update, not a VMA churn.
  void* mapped = mmap(addr, bytes, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  SBT_CHECK(mapped != MAP_FAILED);
  committed_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  reclaims_.fetch_add(bytes / page_bytes(), std::memory_order_relaxed);
}

void SecureWorld::UnregisterRange(uint8_t* base, size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_ranges_.size(); ++i) {
    if (live_ranges_[i].base == base) {
      live_ranges_[i] = live_ranges_.back();
      live_ranges_.pop_back();
      munmap(base, capacity);
      return;
    }
  }
  SBT_CHECK(false && "unregistering an unknown range");
}

VirtualRange& VirtualRange::operator=(VirtualRange&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    if (world_ != nullptr && base_ != nullptr) {
      world_->UnregisterRange(base_, capacity_);
    }
    // mu_ deliberately stays put: each object keeps its own mutex (moves are setup-time only).
    world_ = other.world_;
    base_ = other.base_;
    capacity_ = other.capacity_;
    committed_begin_ = other.committed_begin_;
    committed_end_ = other.committed_end_;
    frames_ = std::move(other.frames_);
    first_page_ = other.first_page_;
    other.world_ = nullptr;
    other.base_ = nullptr;
    other.capacity_ = 0;
    other.committed_begin_ = 0;
    other.committed_end_ = 0;
    other.frames_.clear();
    other.first_page_ = 0;
  }
  return *this;
}

VirtualRange::~VirtualRange() {
  ReleaseAll();
  if (world_ != nullptr && base_ != nullptr) {
    world_->UnregisterRange(base_, capacity_);
    base_ = nullptr;
    world_ = nullptr;
  }
}

Status VirtualRange::EnsureBacked(size_t end_offset) {
  SBT_CHECK(world_ != nullptr);
  if (end_offset > capacity_) {
    return OutOfRange("uArray grew past its uGroup's virtual reservation");
  }
  std::lock_guard<std::mutex> lock(*mu_);
  if (committed_end_ >= end_offset) {
    return OkStatus();
  }
  const size_t page = world_->page_bytes();
  if (frames_.empty()) {
    first_page_ = committed_end_ / page;
  }
  // Take every page this call is short in one allocation; on failure, commit what was taken.
  size_t run = frames_.size();
  const Status allocated = world_->AllocRun((end_offset - committed_end_ + page - 1) / page,
                                            &frames_);
  // Map each run of adjacent frames with one call.
  while (run < frames_.size()) {
    size_t run_end = run + 1;
    while (run_end < frames_.size() && frames_[run_end] == frames_[run_end - 1] + 1) {
      ++run_end;
    }
    const Status mapped = world_->MapRun(frames_[run], run_end - run, base_ + committed_end_);
    if (!mapped.ok()) {
      world_->FreeFrames(frames_.data() + run, frames_.size() - run);
      frames_.resize(run);
      return mapped;
    }
    committed_end_ += (run_end - run) * page;
    run = run_end;
  }
  return allocated;
}

void VirtualRange::ReleaseHead(size_t begin_offset) {
  std::lock_guard<std::mutex> lock(*mu_);
  ReleaseHeadLocked(begin_offset);
}

void VirtualRange::ReleaseHeadLocked(size_t begin_offset) {
  SBT_CHECK(world_ != nullptr);
  const size_t page = world_->page_bytes();
  const size_t reclaim_end = std::min(begin_offset, committed_end_) / page * page;
  if (committed_begin_ >= reclaim_end) {
    return;
  }
  const size_t first = committed_begin_ / page;
  const size_t count = (reclaim_end - committed_begin_) / page;
  SBT_CHECK(first >= first_page_ && first - first_page_ + count <= frames_.size());
  world_->UnmapSpan(base_ + committed_begin_, reclaim_end - committed_begin_);
  world_->FreeFrames(frames_.data() + (first - first_page_), count);
  committed_begin_ = reclaim_end;
}

void VirtualRange::ReleaseAll() {
  if (world_ == nullptr || base_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(*mu_);
  ReleaseHeadLocked(committed_end_);
  frames_.clear();
  committed_begin_ = committed_end_ = 0;
  first_page_ = 0;
}

}  // namespace sbt
