// Tests for the TrustZone emulation: secure pool accounting, on-demand paging, in-place growth,
// head reclaim, exhaustion (backpressure precondition), boundary checks, world-switch gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/tz/secure_world.h"
#include "src/tz/tzasc.h"
#include "src/tz/world_switch.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

TzPartitionConfig SmallConfig() {
  return testing::SmallTzPartition(1);  // 1 MB pool
}

constexpr size_t kPage = 64u << 10;

// One line of /proc/self/maps.
struct MapsEntry {
  uintptr_t begin = 0;
  uintptr_t end = 0;
  std::string perms;
  uint64_t inode = 0;
  std::string path;
};

// The /proc/self/maps entry whose mapping contains `addr`; begin == end when none does.
MapsEntry MappingAt(const void* addr) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream in(line);
    MapsEntry e;
    std::string range;
    std::string offset;
    std::string dev;
    in >> range >> e.perms >> offset >> dev >> e.inode;
    std::getline(in >> std::ws, e.path);
    const size_t dash = range.find('-');
    e.begin = std::stoull(range.substr(0, dash), nullptr, 16);
    e.end = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (a >= e.begin && a < e.end) {
      return e;
    }
  }
  return MapsEntry{};
}

// The stamp tests fill a whole committed page with, keyed by its owner (range, page): two
// committed pages sharing a frame, or overlapping file offsets, overwrite each other's stamps.
uint64_t StampOf(uint64_t range_id, size_t page_index) {
  return (range_id << 32) | page_index;
}
void StampPage(uint8_t* page, uint64_t range_id, size_t page_index) {
  std::fill_n(reinterpret_cast<uint64_t*>(page), kPage / sizeof(uint64_t),
              StampOf(range_id, page_index));
}
bool PageHasStamp(const uint8_t* page, uint64_t range_id, size_t page_index) {
  const auto* words = reinterpret_cast<const uint64_t*>(page);
  return std::all_of(words, words + kPage / sizeof(uint64_t),
                     [&](uint64_t w) { return w == StampOf(range_id, page_index); });
}

TEST(TzascTest, ValidatesConfig) {
  TzPartitionConfig cfg = SmallConfig();
  EXPECT_TRUE(cfg.Valid());
  cfg.secure_page_bytes = 3000;  // not a power of two
  EXPECT_FALSE(cfg.Valid());
  cfg = SmallConfig();
  cfg.secure_dram_bytes = 0;
  EXPECT_FALSE(cfg.Valid());
}

TEST(SecureWorldTest, PoolFrameAccounting) {
  SecureWorld world(SmallConfig());
  EXPECT_EQ(world.pool_frames(), 16u);
  EXPECT_EQ(world.free_frames(), 16u);
  EXPECT_EQ(world.stats().pool_bytes, 1u << 20);
  EXPECT_EQ(world.stats().committed_bytes, 0u);
}

TEST(SecureWorldTest, ReserveCommitsNothing) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(512u << 10);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(range->valid());
  EXPECT_EQ(world.stats().committed_bytes, 0u);
  EXPECT_GE(range->capacity(), 512u << 10);
}

TEST(SecureWorldTest, EnsureBackedCommitsAndIsWritable) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(512u << 10);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->EnsureBacked(100).ok());
  EXPECT_EQ(range->committed_end(), 64u << 10);  // rounded to page granule
  EXPECT_EQ(world.stats().committed_bytes, 64u << 10);

  // The committed region must be readable and writable.
  std::memset(range->base(), 0xcd, 100);
  EXPECT_EQ(range->base()[99], 0xcd);
}

TEST(SecureWorldTest, GrowthIsInPlace) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  uint8_t* base = range->base();
  ASSERT_TRUE(range->EnsureBacked(1).ok());
  base[0] = 42;
  for (size_t grow = 2; grow <= 8; ++grow) {
    ASSERT_TRUE(range->EnsureBacked(grow * (64u << 10)).ok());
    EXPECT_EQ(range->base(), base) << "growth must never relocate";
    EXPECT_EQ(base[0], 42) << "existing data must survive growth";
  }
}

TEST(SecureWorldTest, ExhaustionReturnsResourceExhausted) {
  SecureWorld world(SmallConfig());  // 16 frames
  auto range = world.Reserve(4u << 20);
  ASSERT_TRUE(range.ok());
  // 4MB reservation but only 1MB physical: committing past the pool must fail cleanly.
  const Status s = range->EnsureBacked(2u << 20);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Everything that was committed remains usable.
  EXPECT_EQ(range->committed_end(), 1u << 20);
  range->base()[(1u << 20) - 1] = 7;
}

TEST(SecureWorldTest, ReleaseHeadReturnsFramesToPool) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->EnsureBacked(1u << 20).ok());
  EXPECT_EQ(world.free_frames(), 0u);

  range->ReleaseHead(512u << 10);
  EXPECT_EQ(world.free_frames(), 8u);
  EXPECT_EQ(range->committed_begin(), 512u << 10);
  // The tail is still writable.
  range->base()[(1u << 20) - 1] = 9;
  EXPECT_EQ(world.stats().committed_bytes, 512u << 10);
}

TEST(SecureWorldTest, ReleaseHeadPartialPageIsDeferred) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->EnsureBacked(2 * (64u << 10)).ok());
  // Releasing less than a full page reclaims nothing yet.
  range->ReleaseHead(100);
  EXPECT_EQ(range->committed_begin(), 0u);
  range->ReleaseHead(64u << 10);
  EXPECT_EQ(range->committed_begin(), 64u << 10);
}

TEST(SecureWorldTest, FreedFramesAreReusable) {
  SecureWorld world(SmallConfig());
  auto r1 = world.Reserve(1u << 20);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->EnsureBacked(1u << 20).ok());
  r1->ReleaseAll();
  EXPECT_EQ(world.free_frames(), 16u);

  auto r2 = world.Reserve(1u << 20);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->EnsureBacked(1u << 20).ok());
  std::memset(r2->base(), 0, 1u << 20);
}

TEST(SecureWorldTest, DestructorReleasesFrames) {
  SecureWorld world(SmallConfig());
  {
    auto range = world.Reserve(512u << 10);
    ASSERT_TRUE(range.ok());
    ASSERT_TRUE(range->EnsureBacked(512u << 10).ok());
    EXPECT_EQ(world.free_frames(), 8u);
  }
  EXPECT_EQ(world.free_frames(), 16u);
  EXPECT_EQ(world.stats().committed_bytes, 0u);
}

TEST(SecureWorldTest, MoveTransfersOwnership) {
  SecureWorld world(SmallConfig());
  auto r1 = world.Reserve(512u << 10);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->EnsureBacked(64u << 10).ok());
  uint8_t* base = r1->base();
  base[0] = 5;

  VirtualRange r2 = std::move(*r1);
  EXPECT_EQ(r2.base(), base);
  EXPECT_EQ(r2.base()[0], 5);
  EXPECT_FALSE(r1->valid());
  r2.ReleaseAll();
  EXPECT_EQ(world.free_frames(), 16u);
}

TEST(SecureWorldTest, IsSecureAddressTracksRanges) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(512u << 10);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(world.IsSecureAddress(range->base()));
  EXPECT_TRUE(world.IsSecureAddress(range->base() + 1000));
  int normal_world_var = 0;
  EXPECT_FALSE(world.IsSecureAddress(&normal_world_var));
}

TEST(SecureWorldTest, PeakCommittedTracksHighWater) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->EnsureBacked(512u << 10).ok());
  range->ReleaseHead(512u << 10);
  EXPECT_EQ(world.stats().committed_bytes, 0u);
  EXPECT_EQ(world.stats().peak_committed, 512u << 10);
}

TEST(SecureWorldTest, PoolUtilization) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  EXPECT_DOUBLE_EQ(world.PoolUtilization(), 0.0);
  ASSERT_TRUE(range->EnsureBacked(512u << 10).ok());
  EXPECT_DOUBLE_EQ(world.PoolUtilization(), 0.5);
}

TEST(SecureWorldTest, ConcurrentRangesShareThePool) {
  SecureWorld world(SmallConfig());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&world, &successes] {
      auto range = world.Reserve(256u << 10);
      if (!range.ok()) {
        return;
      }
      if (range->EnsureBacked(256u << 10).ok()) {
        std::memset(range->base(), 1, 256u << 10);
        successes.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // 4 * 256KB = 1MB fits exactly.
  EXPECT_EQ(successes.load(), kThreads);
  EXPECT_EQ(world.free_frames(), 16u);
}

TEST(SecureWorldTest, ReclaimedPagesAreInaccessibleAndTheRestStaysMapped) {
  SecureWorld world(SmallConfig());
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->EnsureBacked(6 * kPage).ok());  // one multi-frame run
  std::memset(range->base(), 0x5a, 6 * kPage);
  range->ReleaseHead(2 * kPage + 100);  // the partial third page is deferred
  ASSERT_EQ(range->committed_begin(), 2 * kPage);

  for (size_t p = 0; p < 7; ++p) {
    const MapsEntry e = MappingAt(range->base() + p * kPage);
    ASSERT_LT(e.begin, e.end) << "page " << p << " has no mapping at all";
    if (p < 2 || p == 6) {
      // Reclaimed head and never-committed tail: the inaccessible anonymous reservation.
      EXPECT_EQ(e.perms, "---p") << "page " << p;
      EXPECT_EQ(e.inode, 0u) << "page " << p;
      EXPECT_EQ(e.path, "") << "page " << p;
    } else {
      // Still committed: a shared, writable mapping of the secure DRAM memfd.
      EXPECT_EQ(e.perms, "rw-s") << "page " << p;
      EXPECT_NE(e.path.find("sbt_secure_dram"), std::string::npos) << "page " << p;
      EXPECT_EQ(range->base()[p * kPage], 0x5a);
    }
  }
}

TEST(SecureWorldTest, FramesNeverAliasUnderFragmentation) {
  // Two ranges interleave commits and head reclaims on the 16-frame pool, so later commits
  // take scattered frames and map as several runs. Every committed page carries its owner's
  // stamp; a frame mapped twice, or a run mapped at the wrong file offset, breaks one.
  SecureWorld world(SmallConfig());
  struct Tracked {
    VirtualRange range;
    uint64_t id;
    size_t stamped_end = 0;  // bytes
  };
  std::vector<Tracked> ranges;
  ranges.reserve(2);
  for (uint64_t id = 1; id <= 2; ++id) {
    auto r = world.Reserve(64u << 20);
    ASSERT_TRUE(r.ok());
    ranges.push_back(Tracked{std::move(*r), id});
  }
  auto grow = [&](Tracked& t, size_t pages) {
    const Status s = t.range.EnsureBacked(t.range.committed_end() + pages * kPage);
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kResourceExhausted) << s.ToString();
    for (; t.stamped_end < t.range.committed_end(); t.stamped_end += kPage) {
      StampPage(t.range.base() + t.stamped_end, t.id, t.stamped_end / kPage);
    }
  };
  auto check_all = [&](size_t step) {
    size_t committed_pages = 0;
    for (const Tracked& t : ranges) {
      for (size_t off = t.range.committed_begin(); off < t.range.committed_end(); off += kPage) {
        ASSERT_TRUE(PageHasStamp(t.range.base() + off, t.id, off / kPage))
            << "step " << step << ": range " << t.id << " page " << off / kPage;
        ++committed_pages;
      }
    }
    ASSERT_EQ(committed_pages + world.free_frames(), world.pool_frames()) << "step " << step;
  };

  // A scripted prefix that leaves holes of every shape, then a seeded random walk.
  grow(ranges[0], 5);
  grow(ranges[1], 3);
  grow(ranges[0], 4);
  ranges[0].range.ReleaseHead(3 * kPage);
  grow(ranges[1], 4);  // two runs: the freed head plus one fresh frame
  check_all(0);
  Xoshiro256 rng(16);
  for (size_t step = 1; step <= 300; ++step) {
    Tracked& t = ranges[rng.NextBelow(2)];
    if (rng.NextBelow(2) == 0) {
      grow(t, 1 + rng.NextBelow(8));  // may exhaust the pool part-way
    } else {
      t.range.ReleaseHead(t.range.committed_begin() + rng.NextBelow(6 * kPage));
    }
    check_all(step);
  }
  EXPECT_EQ(world.stats().page_faults - world.stats().reclaims,
            world.pool_frames() - world.free_frames());
}

TEST(SecureWorldTest, HeadReclaimRacesGrowthOnTheSamePool) {
  // The pattern the VirtualRange class comment promises: one thread grows a range while
  // another reclaims its head, and a third grows and reclaims a second range on the same
  // 16-frame pool. Every page is stamped by its grower and checked before it is reclaimed.
  SecureWorld world(SmallConfig());
  constexpr size_t kGrowBytes = 200 * kPage;
  constexpr size_t kRounds = 60;
  auto a = world.Reserve(kGrowBytes);
  auto b = world.Reserve(kRounds * 4 * kPage);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::atomic<size_t> a_stamped{0};
  std::atomic<bool> grower_done{false};
  std::atomic<int> errors{0};

  std::thread grower([&] {
    size_t stamped = 0;
    for (size_t step = 0; stamped < kGrowBytes; ++step) {
      const Status s = a->EnsureBacked(std::min(kGrowBytes, stamped + (1 + step % 5) * kPage));
      if (!s.ok() && s.code() != StatusCode::kResourceExhausted) {
        errors.fetch_add(1);
        break;
      }
      for (const size_t end = a->committed_end(); stamped < end; stamped += kPage) {
        StampPage(a->base() + stamped, 1, stamped / kPage);
      }
      a_stamped.store(stamped, std::memory_order_release);
      if (!s.ok()) {
        std::this_thread::yield();  // the reclaimer frees frames
      }
    }
    grower_done.store(true, std::memory_order_release);
  });
  std::thread reclaimer([&] {
    size_t checked = 0;
    for (size_t step = 0; checked < kGrowBytes; ++step) {
      const size_t stamped = a_stamped.load(std::memory_order_acquire);
      if (stamped == checked) {
        if (grower_done.load(std::memory_order_acquire) &&
            a_stamped.load(std::memory_order_acquire) == checked) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      for (; checked < stamped; checked += kPage) {
        if (!PageHasStamp(a->base() + checked, 1, checked / kPage)) {
          errors.fetch_add(1);
        }
      }
      // A ragged target: whole pages below it go, a partial last page waits for later.
      a->ReleaseHead(checked - (step % 2 == 0 ? 0 : 100));
    }
    a->ReleaseHead(kGrowBytes);
  });
  std::thread second([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      const size_t target = b->committed_end() + (1 + round % 4) * kPage;
      Status s = b->EnsureBacked(target);
      while (s.code() == StatusCode::kResourceExhausted) {
        std::this_thread::yield();
        s = b->EnsureBacked(target);
      }
      if (!s.ok()) {
        errors.fetch_add(1);
        return;
      }
      for (size_t off = b->committed_begin(); off < target; off += kPage) {
        StampPage(b->base() + off, 2, off / kPage);
      }
      for (size_t off = b->committed_begin(); off < target; off += kPage) {
        if (!PageHasStamp(b->base() + off, 2, off / kPage)) {
          errors.fetch_add(1);
        }
      }
      b->ReleaseHead(target);
    }
  });
  grower.join();
  reclaimer.join();
  second.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(a->committed_begin(), kGrowBytes);
  EXPECT_EQ(world.free_frames(), world.pool_frames());
  EXPECT_EQ(world.stats().committed_bytes, 0u);
  EXPECT_EQ(world.stats().page_faults, world.stats().reclaims);
}

// --- deterministic fault injection (tests/testing ScopedFailPoint fixture) ---------------

TEST(FailPointTest, AllocFrameFailureIsDeterministicAndLeakFree) {
  SecureWorld world(SmallConfig());  // 16 frames
  auto range = world.Reserve(1u << 20);
  ASSERT_TRUE(range.ok());
  {
    // Let 4 frame allocations pass, fail the 5th: exhaustion on purpose, not by luck.
    testing::ScopedFailPoint fp("secure_world.alloc_frame",
                                testing::ScopedFailPoint::Counted(/*skip=*/4));
    const Status s = range->EnsureBacked(8 * (64u << 10));
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
    // Exactly the pre-failure pages are committed, and the failed allocation leaked nothing.
    EXPECT_EQ(range->committed_end(), 4 * (64u << 10));
    EXPECT_EQ(world.free_frames(), 12u);
    EXPECT_EQ(fp.hits(), 5u);
  }
  // Disarmed: growth resumes exactly where it stopped, with all data intact.
  range->base()[0] = 42;
  ASSERT_TRUE(range->EnsureBacked(8 * (64u << 10)).ok());
  EXPECT_EQ(range->committed_end(), 8 * (64u << 10));
  EXPECT_EQ(range->base()[0], 42);
  EXPECT_EQ(world.free_frames(), 8u);
}

TEST(FailPointTest, SeededAllocFaultsReplayIdentically) {
  // The same seed must fail the same allocation attempts — that is what makes randomized
  // robustness runs reproducible.
  auto run = [](uint64_t seed) {
    SecureWorld world(SmallConfig());
    auto range = world.Reserve(1u << 20);
    EXPECT_TRUE(range.ok());
    testing::ScopedFailPoint fp("secure_world.alloc_frame",
                                testing::ScopedFailPoint::Seeded(seed, /*num=*/1, /*den=*/3));
    std::vector<bool> failed;
    for (size_t page = 1; page <= 16; ++page) {
      failed.push_back(!range->EnsureBacked(page * (64u << 10)).ok());
    }
    return failed;
  };
  const auto a = run(12345);
  const auto b = run(12345);
  const auto c = run(54321);
  EXPECT_EQ(a, b) << "same seed, same failure schedule";
  EXPECT_NE(a, c) << "different seed, different schedule (with overwhelming probability)";
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0) << "p=1/3 over 16 draws must fire";
}

TEST(FailPointTest, WorldSwitchFaultsAreRetriedAndCounted) {
  WorldSwitchGate gate(WorldSwitchConfig{.entry_cycles = 2000, .exit_cycles = 1000});
  testing::ScopedFailPoint fp("world_switch.fault",
                              testing::ScopedFailPoint::Counted(/*skip=*/1, /*fail=*/2));
  for (int i = 0; i < 4; ++i) {
    auto s = gate.Enter();
  }
  // The second entry faulted twice before succeeding; every entry still completed.
  EXPECT_EQ(gate.stats().entries, 4u);
  EXPECT_EQ(gate.stats().faults, 2u);
  // Each fault burns one extra entry cost on top of the normal entry+exit.
  EXPECT_EQ(gate.stats().burned_cycles, 4u * 3000u + 2u * 2000u);
}

TEST(WorldSwitchTest, CountsEntries) {
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  {
    auto s1 = gate.Enter();
    auto s2 = gate.Enter();
  }
  EXPECT_EQ(gate.stats().entries, 2u);
  EXPECT_EQ(gate.stats().burned_cycles, 0u);
}

TEST(WorldSwitchTest, BurnsConfiguredCycles) {
  WorldSwitchGate gate(WorldSwitchConfig{.entry_cycles = 2000, .exit_cycles = 1000});
  { auto s = gate.Enter(); }
  EXPECT_EQ(gate.stats().entries, 1u);
  EXPECT_EQ(gate.stats().burned_cycles, 3000u);
}

TEST(WorldSwitchTest, SessionIsMoveAssignable) {
  WorldSwitchGate a(WorldSwitchConfig{.entry_cycles = 2000, .exit_cycles = 1000});
  WorldSwitchGate b(WorldSwitchConfig{.entry_cycles = 400, .exit_cycles = 200});
  {
    auto s = a.Enter();
    // Re-pointing the session at a fresh entry pays the old session's exit first.
    s = b.Enter();
    EXPECT_EQ(a.stats().burned_cycles, 3000u);
    EXPECT_EQ(b.stats().entries, 1u);
    // Re-entering the same gate through the same variable is the common "reuse the session
    // variable" shape.
    s = b.Enter();
    EXPECT_EQ(b.stats().entries, 2u);
  }
  EXPECT_EQ(a.stats().entries, 1u);
  EXPECT_EQ(a.stats().burned_cycles, 3000u);
  EXPECT_EQ(b.stats().entries, 2u);
  EXPECT_EQ(b.stats().burned_cycles, 2u * 400u + 2u * 200u);
}

TEST(WorldSwitchTest, AnnotateAmortizesOpsOverEntries) {
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  {
    // A fused chain: four ops under one entry.
    auto s = gate.Enter();
    for (uint16_t op = 10; op < 14; ++op) {
      s.Annotate(op);
    }
  }
  {
    // A call-per-primitive entry: one op.
    auto s = gate.Enter();
    s.Annotate(10);
  }
  const WorldSwitchStats stats = gate.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.annotated_ops, 5u);
  EXPECT_DOUBLE_EQ(stats.ops_per_entry(), 2.5);
  // Per-op cycle attribution accumulates (monotonic counter; exact values are host timing).
  EXPECT_GT(gate.op_cycles(10), 0u);
}

// Busy-waits long enough for ~`cycles` counter ticks — measurable in-session residency.
void SpinCycles(uint64_t cycles) {
  const uint64_t start = ReadCycleCounter();
  while (ReadCycleCounter() - start < cycles) {
  }
}

TEST(WorldSwitchTest, MoveAssignSettlesTheAssignedOverSessionsResidual) {
  // Regression: move-assigning a fresh entry over a live session pays the old session's exit,
  // but its residual in-TEE tail — the cycles since its last annotation — used to vanish when
  // mark_ was overwritten mid-flight. session_cycles then under-counted every session ended by
  // re-pointing, the shape any reused session variable produces.
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  uint64_t after_first = 0;
  {
    auto s = gate.Enter();
    SpinCycles(50000);
    EXPECT_EQ(gate.stats().session_cycles, 0u);  // nothing settled while the session is live
    s = gate.Enter();  // first session ends HERE: its 50k+ cycle tail must be settled
    after_first = gate.stats().session_cycles;
    EXPECT_GE(after_first, 50000u);
    SpinCycles(50000);
  }
  // The second session's tail settles at destruction, on top of the first one's.
  EXPECT_GE(gate.stats().session_cycles, after_first + 50000u);
}

TEST(WorldSwitchTest, OpsPerEntryIsZeroWithoutEntries) {
  // entries == 0 must read as 0 ops/entry, not a division by zero (a fresh or reset gate is
  // exactly what the fig9 emitter reads before any work ran).
  WorldSwitchStats empty;
  EXPECT_EQ(empty.ops_per_entry(), 0.0);
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  EXPECT_EQ(gate.stats().ops_per_entry(), 0.0);
}

TEST(WorldSwitchTest, AnnotateOnMovedFromSessionIsANoOp) {
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  auto s1 = gate.Enter();
  auto s2 = std::move(s1);
  s1.Annotate(10);  // moved-from: must not crash or count
  s2.Annotate(10);
  EXPECT_EQ(gate.stats().annotated_ops, 1u);
}

TEST(WorldSwitchTest, ResetClearsStats) {
  WorldSwitchGate gate(WorldSwitchConfig::Disabled());
  { auto s = gate.Enter(); }
  gate.ResetStats();
  EXPECT_EQ(gate.stats().entries, 0u);
  EXPECT_EQ(gate.stats().annotated_ops, 0u);
  EXPECT_EQ(gate.op_cycles(10), 0u);
}

TEST(WorldSwitchTest, BurnTakesMeasurableTime) {
  WorldSwitchGate cheap(WorldSwitchConfig::Disabled());
  WorldSwitchGate costly(WorldSwitchConfig{.entry_cycles = 200000, .exit_cycles = 200000});

  const uint64_t t0 = ReadCycleCounter();
  for (int i = 0; i < 10; ++i) {
    auto s = cheap.Enter();
  }
  const uint64_t cheap_cycles = ReadCycleCounter() - t0;

  const uint64_t t1 = ReadCycleCounter();
  for (int i = 0; i < 10; ++i) {
    auto s = costly.Enter();
  }
  const uint64_t costly_cycles = ReadCycleCounter() - t1;
  EXPECT_GT(costly_cycles, cheap_cycles);
  EXPECT_GE(costly_cycles, 10u * 400000u);
}

}  // namespace
}  // namespace sbt
