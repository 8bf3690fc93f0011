// Concurrency suite for the lock-free retire path and the sharded id arenas: many threads
// hammer the ticket ring (stage + retire + frontier-commit election) and the allocator's
// lock-free id reservation, under TSan in CI (label "concurrent", --repeat until-fail:3).
// The properties here are the ones the byte-identity tests in property_test.cc rest on:
// commit order == ticket order under any interleaving, ids disjoint under any interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/data_plane.h"
#include "src/uarray/allocator.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

DataPlaneConfig RingConfig() {
  return testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false);
}

// --- ticket ring under contention --------------------------------------------------------

TEST(TicketRing, ConcurrentStageAndRetireCommitsInProgramOrder) {
  // More tickets than ring slots (4096): the ring wraps several times and the opener rides
  // the full-ring backpressure while 8 workers stage and retire out of order. The audit log
  // must still read back in exact program order.
  constexpr uint64_t kTickets = 10000;
  constexpr int kWorkers = 8;
  DataPlane dp(RingConfig());

  std::mutex mu;
  std::deque<ExecTicket> queue;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        ExecTicket ticket;
        bool got = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!queue.empty()) {
            ticket = queue.front();
            queue.pop_front();
            got = true;
          } else if (done.load(std::memory_order_acquire)) {
            return;
          }
        }
        if (!got) {
          std::this_thread::yield();
          continue;
        }
        // One staged record per ticket, tagged with the ticket's program position.
        EXPECT_TRUE(
            dp.IngestWatermark(static_cast<EventTimeMs>(ticket.seq), 0, &ticket).ok());
        dp.RetireTicket(ticket);
      }
    });
  }
  for (uint64_t i = 0; i < kTickets; ++i) {
    ExecTicket ticket = dp.OpenTicket(0);  // blocks while the slot's previous lap is live
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(ticket);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }

  EXPECT_EQ(dp.open_tickets(), 0u);
  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  ASSERT_EQ(records.size(), kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    EXPECT_EQ(records[i].op, PrimitiveOp::kWatermark) << "record " << i;
    EXPECT_EQ(records[i].watermark, static_cast<EventTimeMs>(i)) << "record " << i;
  }
}

TEST(TicketRing, ReverseRetireCommitsNothingUntilTheFrontierRetires) {
  // Retire every ticket EXCEPT the frontier: nothing may commit (log order == ticket order,
  // not retire order). Retiring the frontier then commits the whole run in one batch.
  constexpr uint64_t kTickets = 64;
  DataPlane dp(RingConfig());

  std::vector<ExecTicket> tickets;
  tickets.reserve(kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    tickets.push_back(dp.OpenTicket(0));
    EXPECT_TRUE(
        dp.IngestWatermark(static_cast<EventTimeMs>(i), 0, &tickets.back()).ok());
  }
  for (uint64_t i = kTickets - 1; i >= 1; --i) {
    dp.RetireTicket(tickets[i]);
  }
  EXPECT_EQ(dp.open_tickets(), kTickets);  // frontier still open: zero commits
  dp.RetireTicket(tickets[0]);
  EXPECT_EQ(dp.open_tickets(), 0u);

  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  ASSERT_EQ(records.size(), kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    EXPECT_EQ(records[i].watermark, static_cast<EventTimeMs>(i)) << "record " << i;
  }
}

TEST(TicketRing, ConcurrentRetireElectionNeverStrandsASuffix) {
  // The commit-election race: a ticket that retires while another thread is mid-drain (or
  // just released the commit lock) must never be stranded uncommitted. Many rounds of a
  // 2-ticket race distill exactly that window.
  DataPlane dp(RingConfig());
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    ExecTicket a = dp.OpenTicket(0);
    ExecTicket b = dp.OpenTicket(0);
    std::thread t1([&] { dp.RetireTicket(a); });
    std::thread t2([&] { dp.RetireTicket(b); });
    t1.join();
    t2.join();
    // Whoever won the election, both tickets must be committed once the calls return.
    ASSERT_EQ(dp.open_tickets(), 0u) << "round " << round;
  }
}

TEST(TicketRing, CheckpointRefusesWhileRingNonEmpty) {
  // The checkpoint admission rule extends to the lock-free ring: an open ticket (or a retired
  // ticket whose commit hasn't been drained) is in-flight state the seal must refuse.
  DataPlane dp(RingConfig());
  ExecTicket ticket = dp.OpenTicket(0);
  EXPECT_EQ(dp.Checkpoint().status().code(), StatusCode::kFailedPrecondition);
  dp.RetireTicket(ticket);
  EXPECT_TRUE(dp.Checkpoint().ok());
}

// --- sharded id arenas under contention ---------------------------------------------------

TEST(IdArenas, ConcurrentReservationsAreDisjointAndGapless) {
  // ReserveIds is a single relaxed fetch_add: under any interleaving the handed-out arenas
  // must tile the id space — pairwise disjoint, no gaps, nothing lost.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  constexpr int kThreads = 8;
  constexpr int kReservationsPerThread = 2000;

  const uint64_t first = alloc.next_array_id();
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kReservationsPerThread);
      for (int i = 0; i < kReservationsPerThread; ++i) {
        const uint32_t count = 1 + static_cast<uint32_t>((t + i) % 7);
        per_thread[t].emplace_back(alloc.ReserveIds(count), count);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<std::pair<uint64_t, uint32_t>> all;
  uint64_t total = 0;
  for (const auto& v : per_thread) {
    for (const auto& [base, count] : v) {
      all.emplace_back(base, count);
      total += count;
    }
  }
  std::sort(all.begin(), all.end());
  uint64_t expect = first;
  for (const auto& [base, count] : all) {
    EXPECT_EQ(base, expect) << "gap or overlap in the reserved arenas";
    expect = base + count;
  }
  EXPECT_EQ(alloc.next_array_id(), first + total);
}

TEST(IdArenas, ScratchIdsAreUniqueAndInvisibleToAuditIds) {
  // kTemporary arrays draw from per-thread arenas in the [2^62, 2^63) scratch space: ids are
  // unique across racing threads, and — the determinism property the audit chain rests on —
  // the audit-visible id counter never moves, no matter how many scratch arrays raced.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  constexpr int kThreads = 8;
  constexpr int kArraysPerThread = 500;
  constexpr uint64_t kScratchIdBase = 1ull << 62;

  const uint64_t audit_id_before = alloc.next_array_id();
  std::vector<std::vector<uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kArraysPerThread);
      for (int i = 0; i < kArraysPerThread; ++i) {
        auto arr = alloc.Create(8, UArrayScope::kTemporary);
        ASSERT_TRUE(arr.ok()) << arr.status().ToString();
        per_thread[t].push_back((*arr)->id());
        (*arr)->Produce();
        alloc.Retire(*arr);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<uint64_t> ids;
  for (const auto& v : per_thread) {
    ids.insert(ids.end(), v.begin(), v.end());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "duplicate scratch id";
  for (const uint64_t id : ids) {
    EXPECT_GE(id, kScratchIdBase);
  }
  EXPECT_EQ(alloc.next_array_id(), audit_id_before)
      << "scratch allocation perturbed the audit-visible id sequence";
}

TEST(IdArenas, ScratchRacesDoNotShiftConcurrentAuditReservations) {
  // The mixed case the sharding exists for: audit-side ReserveIds stays gapless while
  // scratch creation storms in parallel.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  const uint64_t first = alloc.next_array_id();

  std::atomic<bool> stop{false};
  std::thread scratcher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto arr = alloc.Create(8, UArrayScope::kTemporary);
      ASSERT_TRUE(arr.ok());
      (*arr)->Produce();
      alloc.Retire(*arr);
    }
  });
  std::vector<uint64_t> bases;
  for (int i = 0; i < 5000; ++i) {
    bases.push_back(alloc.ReserveIds(3));
  }
  stop.store(true, std::memory_order_release);
  scratcher.join();

  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(bases[i], first + 3 * i) << "reservation " << i << " shifted";
  }
}

}  // namespace
}  // namespace sbt
