// Stress suite for elastic intra-engine parallelism (ctest labels: unit, concurrent — the
// nightly TSan job repeats it with --repeat until-fail:5).
//
// Hammers the three things the worker pool must not break, across worker counts {1, 2, 8}:
//
//  1. determinism across a sealed checkpoint: a session that seals mid-way and continues in a
//     restored engine produces byte-identical audit uploads and egress blobs at every worker
//     count — even with SMC faults injected at the world-switch gate, and with checkpoint
//     attempts racing the in-flight work (the quiesce barriers must refuse, not corrupt);
//  2. thread safety of concurrent Submit through the ticketed boundary: two ingest threads
//     (a two-stream Join pipeline) racing the worker pool, under TSan;
//  3. failed-chain bookkeeping under seeded secure-allocation faults: chains fail mid-window
//     on arbitrary workers, yet nothing wedges — windows keep closing, Drain returns, a
//     post-fault checkpoint seals, and the audit chain still MAC-verifies.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/attest/compress.h"
#include "src/attest/verifier.h"
#include "src/common/event.h"
#include "src/common/failpoint.h"
#include "src/control/lifecycle.h"
#include "src/control/benchmarks.h"
#include "src/control/engine.h"
#include "src/core/data_plane.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

DataPlaneConfig StressConfig() {
  EngineOptions opts;
  opts.secure_pool_mb = 64;
  DataPlaneConfig cfg = MakeEngineConfig(EngineVersion::kSbtClearIngress, opts);
  // Byte-comparing uploads across runs needs deterministic record timestamps.
  cfg.logical_audit_timestamps = true;
  return cfg;
}

RunnerConfig StressRunnerConfig(int workers) {
  RunnerConfig rc;
  rc.knobs.worker_threads = workers;
  return rc;
}

std::vector<Event> WindowEvents(uint32_t window, size_t n, uint64_t seed) {
  std::vector<Event> events = testing::MakeEvents(n, /*keys=*/64, 1000, seed);
  for (Event& e : events) {
    e.ts_ms = window * 1000 + e.ts_ms % 1000;
  }
  return events;
}

class WorkerStress : public ::testing::TestWithParam<int> {};

// --- 1. checkpointed continuation, byte-for-byte across worker counts --------------------

struct ContinuationArtifacts {
  AuditUpload seal_upload;    // the chain link flushed when the engine sealed
  AuditUpload final_upload;   // the restored engine's session-closing link
  std::vector<AuditRecord> records;  // decoded, both uploads
  std::vector<WindowResult> results;
  uint64_t task_errors = 0;
  uint64_t windows_emitted = 0;
};

void RunCheckpointedSession(int workers, ContinuationArtifacts* artifacts) {
  const Pipeline pipeline = MakeDistinct(1000);
  const DataPlaneConfig cfg = StressConfig();
  ContinuationArtifacts& out = *artifacts;

  SealedCheckpoint sealed;
  {
    DataPlane dp(cfg);
    Runner runner(&dp, pipeline, StressRunnerConfig(workers));
    for (uint32_t w = 0; w < 3; ++w) {
      for (int f = 0; f < 2; ++f) {
        const std::vector<Event> events = WindowEvents(w, 2000, 7 * w + f);
        ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok()) << w;
      }
      // A checkpoint racing in-flight work must refuse cleanly at the data-plane barrier:
      // chains for this window are queued or executing right now. With a ticket held open by
      // this thread, the data plane must refuse to seal — and refuse BEFORE flushing the
      // audit log, or the byte-for-byte comparison below would notice.
      {
        ExecTicket open = dp.OpenTicket(0);
        EXPECT_EQ(dp.Checkpoint().status().code(), StatusCode::kFailedPrecondition);
        dp.RetireTicket(open);
      }
      ASSERT_TRUE(runner.AdvanceWatermark((w + 1) * 1000).ok());
    }
    runner.Drain();
    std::vector<WindowResult> pre = runner.TakeResults();
    out.results.insert(out.results.end(), std::make_move_iterator(pre.begin()),
                       std::make_move_iterator(pre.end()));
    auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({}, &out.results);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    sealed = std::move(bundle->sealed);
    out.seal_upload = std::move(bundle->audit);
    out.task_errors += runner.stats().task_errors;
  }

  // Continue in a re-homed incarnation at the same worker count.
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, StressRunnerConfig(workers));
  ASSERT_TRUE(EngineLifecycle(&dp, &runner).Restore(sealed).ok());
  for (uint32_t w = 3; w < 5; ++w) {
    for (int f = 0; f < 2; ++f) {
      const std::vector<Event> events = WindowEvents(w, 2000, 7 * w + f);
      ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok()) << w;
    }
    ASSERT_TRUE(runner.AdvanceWatermark((w + 1) * 1000).ok());
  }
  runner.Drain();
  std::vector<WindowResult> post = runner.TakeResults();
  out.results.insert(out.results.end(), std::make_move_iterator(post.begin()),
                     std::make_move_iterator(post.end()));
  out.final_upload = dp.FlushAudit();
  out.task_errors += runner.stats().task_errors;
  out.windows_emitted = runner.stats().windows_emitted;

  for (const AuditUpload* upload : {&out.seal_upload, &out.final_upload}) {
    auto decoded = DecodeAuditBatch(upload->compressed);
    ASSERT_TRUE(decoded.ok());
    out.records.insert(out.records.end(), std::make_move_iterator(decoded->begin()),
                       std::make_move_iterator(decoded->end()));
  }
}

void ExpectUploadIdentical(const AuditUpload& a, const AuditUpload& b) {
  EXPECT_EQ(a.chain_seq, b.chain_seq);
  EXPECT_TRUE(DigestEqual(a.chain_prev, b.chain_prev));
  EXPECT_EQ(a.record_count, b.record_count);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.compressed, b.compressed);
  EXPECT_TRUE(DigestEqual(a.mac, b.mac));
}

void ExpectContinuationsIdentical(const ContinuationArtifacts& current,
                                  const ContinuationArtifacts& reference) {
  EXPECT_EQ(reference.task_errors, 0u);
  EXPECT_EQ(current.task_errors, 0u);
  EXPECT_EQ(current.windows_emitted, reference.windows_emitted);

  ExpectUploadIdentical(current.seal_upload, reference.seal_upload);
  ExpectUploadIdentical(current.final_upload, reference.final_upload);

  ASSERT_EQ(current.results.size(), reference.results.size());
  for (size_t i = 0; i < current.results.size(); ++i) {
    EXPECT_EQ(current.results[i].window_index, reference.results[i].window_index);
    ASSERT_EQ(current.results[i].blobs.size(), reference.results[i].blobs.size());
    for (size_t j = 0; j < current.results[i].blobs.size(); ++j) {
      EXPECT_EQ(current.results[i].blobs[j].ciphertext,
                reference.results[i].blobs[j].ciphertext);
      EXPECT_EQ(current.results[i].blobs[j].ctr_offset,
                reference.results[i].blobs[j].ctr_offset);
    }
  }

  // The spliced chain verifies as one session: MAC chain continuity across the restore, and a
  // correct symbolic replay of the full record stream.
  const DataPlaneConfig cfg = StressConfig();
  AuditChainVerifier chain(cfg.mac_key);
  ASSERT_TRUE(chain.Accept(current.seal_upload).ok());
  ASSERT_TRUE(chain.Accept(current.final_upload).ok());
  // `correct` alone would also accept a log that lost every ticketed record, so the replay
  // must account for every window the session egressed.
  const VerifyReport report =
      CloudVerifier(MakeDistinct(1000).ToVerifierSpec()).Verify(current.records);
  EXPECT_TRUE(report.correct) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_FALSE(current.results.empty());
  EXPECT_EQ(report.windows_verified, current.results.size());
}

TEST_P(WorkerStress, CheckpointedContinuationMatchesSingleWorkerByteForByte) {
  // SMC faults at schedule-dependent points the whole way through — they burn cycles but must
  // not perturb the dataflow, the seal, or the restored continuation.
  testing::ScopedFailPoint fp("world_switch.fault",
                              testing::ScopedFailPoint::Seeded(/*seed=*/5, /*num=*/1,
                                                               /*den=*/16));
  ContinuationArtifacts reference;
  RunCheckpointedSession(1, &reference);
  ContinuationArtifacts current;
  RunCheckpointedSession(GetParam(), &current);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ExpectContinuationsIdentical(current, reference);
}

// --- 2. concurrent two-stream ingest racing the worker pool ------------------------------

TEST_P(WorkerStress, ConcurrentStreamIngestIsRaceFreeAndReplays) {
  const Pipeline pipeline = MakeJoin(1000);
  DataPlaneConfig cfg = StressConfig();
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, StressRunnerConfig(GetParam()));

  for (uint32_t w = 0; w < 4; ++w) {
    // One ingesting thread per stream (the Runner's documented concurrency contract), both
    // racing the worker pool's chain and close tasks for earlier windows.
    std::vector<std::thread> feeders;
    for (uint16_t stream = 0; stream < 2; ++stream) {
      feeders.emplace_back([&, stream] {
        for (int f = 0; f < 2; ++f) {
          const std::vector<Event> events = WindowEvents(w, 1500, 13 * w + 3 * stream + f);
          ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(events), stream).ok());
        }
      });
    }
    for (std::thread& t : feeders) {
      t.join();
    }
    ASSERT_TRUE(runner.AdvanceWatermark((w + 1) * 1000).ok());
  }
  runner.Drain();
  EXPECT_EQ(runner.stats().task_errors, 0u);
  EXPECT_EQ(runner.stats().windows_emitted, 4u);

  std::vector<AuditRecord> records;
  const AuditUpload upload = dp.FlushAudit(&records);
  AuditChainVerifier chain(cfg.mac_key);
  EXPECT_TRUE(chain.Accept(upload).ok());
  const VerifyReport report = CloudVerifier(pipeline.ToVerifierSpec()).Verify(records);
  EXPECT_TRUE(report.correct) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.windows_verified, 4u);
}

// --- 3. seeded chain failures: no wedge, no leak, chain still verifies -------------------

TEST_P(WorkerStress, SeededChainFailuresNeverWedgeOrLeak) {
  const Pipeline pipeline = MakeDistinct(1000);
  DataPlaneConfig cfg = StressConfig();
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, StressRunnerConfig(GetParam()));

  uint64_t ingest_failures = 0;
  {
    // One in six secure-frame allocations fails: ingest, chain steps, window closes, and
    // egress all hit exhaustion mid-flight, on whichever worker got there.
    testing::ScopedFailPoint fp("secure_world.alloc_frame",
                                testing::ScopedFailPoint::Seeded(/*seed=*/99, 1, 6));
    for (uint32_t w = 0; w < 6; ++w) {
      for (int f = 0; f < 2; ++f) {
        const std::vector<Event> events = WindowEvents(w, 2000, 31 * w + f);
        if (!runner.IngestFrame(testing::AsBytes(events)).ok()) {
          ++ingest_failures;
        }
      }
      ASSERT_TRUE(runner.AdvanceWatermark((w + 1) * 1000).ok());
    }
    runner.Drain();  // must return: failed chains still flow through window bookkeeping
    EXPECT_GT(ingest_failures + runner.stats().task_errors, 0u) << "p=1/6 over many draws";
  }
  EXPECT_LE(dp.memory_stats().peak_committed, dp.memory_stats().pool_bytes);

  // After the faults stop: the engine still processes a fresh window end to end, and the
  // drained engine seals (every failed chain retired its ticket and released its orphans).
  const uint64_t emitted_before = runner.stats().windows_emitted;
  const std::vector<Event> clean = WindowEvents(100, 2000, 4242);
  ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(clean)).ok());
  ASSERT_TRUE(runner.AdvanceWatermark(101 * 1000).ok());
  runner.Drain();
  EXPECT_EQ(runner.stats().windows_emitted, emitted_before + 1);
  EXPECT_EQ(dp.open_tickets(), 0u);

  std::vector<WindowResult> results;
  auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({}, &results);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  AuditChainVerifier chain(cfg.mac_key);
  EXPECT_TRUE(chain.Accept(bundle->audit).ok());
  // Replay may flag the injected gaps as violations — that is the design (attestation, not
  // silence) — but it must never crash or hang on the faulted stream.
  auto decoded = DecodeAuditBatch(bundle->audit.compressed);
  ASSERT_TRUE(decoded.ok());
  (void)CloudVerifier(pipeline.ToVerifierSpec()).Verify(*decoded, /*session_complete=*/false);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, WorkerStress, ::testing::Values(1, 2, 8));

// --- 4. the checkpoint refusal decision is atomic with the seal --------------------------

TEST(CheckpointRace, SealDecisionIsAtomicAgainstConcurrentSubmission) {
  // Regression for a check-then-act window: Checkpoint read inflight_chains()/open_tickets()
  // and then sealed without holding the boundary admission lock, so a chain admitted between
  // the decision and the seal could execute mid-snapshot. The stall failpoint pins the
  // checkpoint thread inside exactly that window — now under admission_mu_ — while a worker's
  // Submit + RetireTicket races it; the racer must block at admission until the seal
  // completes, and its audit record must land in the post-seal chain link, never the sealed
  // one.
  DataPlane dp(testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false));
  const auto events = testing::ConstantEvents(64);
  auto info =
      dp.IngestBatch(testing::AsBytes(events), sizeof(Event), 0, IngestPath::kTrustedIo);
  ASSERT_TRUE(info.ok());
  const OpaqueRef head = info->ref;

  auto stall = std::make_unique<testing::ScopedFailPoint>(
      "data_plane.checkpoint_stall",
      testing::ScopedFailPoint::Counted(/*skip=*/0, /*fail=*/uint64_t{1} << 40));

  Result<DataPlane::CheckpointBundle> bundle = Internal("checkpoint never ran");
  std::thread checkpointer([&] { bundle = dp.Checkpoint(); });
  while (FailPoints::Hits("data_plane.checkpoint_stall") == 0) {
    std::this_thread::yield();  // decision made, seal pending: the window is open
  }

  Result<SubmitResponse> raced = Internal("racer never ran");
  std::thread racer([&] {
    ExecTicket ticket = dp.OpenTicket(1);
    CmdBuffer one;
    one.Push(CmdBuffer::Entry{PrimitiveOp::kProject, {head}, {}, HintRequest::None()});
    raced = dp.Submit(one, &ticket);
    dp.RetireTicket(ticket);
  });
  // The racer opens its ticket before its chain reaches admission; once the ticket is
  // visible, give it a beat to block at the admission mutex, then let the seal proceed.
  while (dp.open_tickets() == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stall.reset();  // disarm: the stall loop exits and the seal runs to completion
  checkpointer.join();
  racer.join();

  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  EXPECT_EQ(dp.open_tickets(), 0u);
  // The racer's chain ran after the seal: the sealed link holds only the pre-race ingest
  // record, and the next link holds exactly the raced chain's record.
  const uint64_t sealed_records = bundle->audit.record_count;
  const AuditUpload after = dp.FlushAudit();
  EXPECT_EQ(after.chain_seq, bundle->audit.chain_seq + 1);
  EXPECT_EQ(after.record_count, 1u) << "raced chain must commit after the seal, sealed link had "
                                    << sealed_records;
}

}  // namespace
}  // namespace sbt
