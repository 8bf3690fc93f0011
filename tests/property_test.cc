// Property-based tests on DESIGN.md's invariants: parameterized sweeps over sizes and
// distributions for the sort/aggregate kernels, lossless-compression fuzzing, and
// mutation-detection properties of the verifier (any single tampering of an honest audit
// stream is rejected).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <string>

#include "src/attest/compress.h"
#include "src/attest/verifier.h"
#include "src/common/rng.h"
#include "src/control/benchmarks.h"
#include "src/control/engine.h"
#include "src/control/harness.h"
#include "src/control/lifecycle.h"
#include "src/crypto/sha256.h"
#include "src/obs/metrics.h"
#include "src/primitives/primitives.h"
#include "src/primitives/simd_kernels.h"
#include "src/primitives/vec_sort.h"
#include "src/server/edge_server.h"
#include "src/server/shard_router.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

// --- sort kernel sweep: size x distribution, both implementations ------------------

struct SortCase {
  size_t n;
  int distribution;  // 0 uniform, 1 few-distinct, 2 sorted, 3 reverse, 4 sawtooth
};

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, MatchesStdSortBothImpls) {
  const SortCase c = GetParam();
  Xoshiro256 rng(c.n * 31 + c.distribution);
  std::vector<int64_t> data(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    switch (c.distribution) {
      case 0:
        data[i] = static_cast<int64_t>(rng.Next());
        break;
      case 1:
        data[i] = static_cast<int64_t>(rng.NextBelow(7));
        break;
      case 2:
        data[i] = static_cast<int64_t>(i);
        break;
      case 3:
        data[i] = static_cast<int64_t>(c.n - i);
        break;
      default:
        data[i] = static_cast<int64_t>(i % 97);
        break;
    }
  }
  std::vector<int64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  for (SortImpl impl : {SortImpl::kScalar, SortImpl::kVector}) {
    if (impl == SortImpl::kVector && !VectorSortSupported()) {
      continue;
    }
    std::vector<int64_t> work = data;
    std::vector<int64_t> scratch(c.n);
    SortI64(work, scratch, impl);
    EXPECT_EQ(work, expected) << "n=" << c.n << " dist=" << c.distribution;
  }
}

std::vector<SortCase> SortCases() {
  std::vector<SortCase> cases;
  // Sizes straddling the radix threshold (1<<16) and the in-register block sizes.
  for (size_t n : {3u, 64u, 2047u, 2048u, 65535u, 65536u, 65537u, 200000u}) {
    for (int d = 0; d < 5; ++d) {
      cases.push_back({n, d});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortSweep, ::testing::ValuesIn(SortCases()));

// --- aggregation pipeline property: SumCnt o Sort == reference, across batch splits ----

class SplitInvariance : public ::testing::TestWithParam<int> {};

TEST_P(SplitInvariance, MergeOfPartialSortsEqualsGlobalSort) {
  // Splitting a window into k batches, sorting each, and MergeN-ing must equal sorting the
  // whole window at once — the runner's correctness depends on this.
  const int k = GetParam();
  TzPartitionConfig tz;
  tz.secure_dram_bytes = 32u << 20;
  tz.group_reserve_bytes = 32u << 20;
  SecureWorld world(tz);
  UArrayAllocator alloc(&world);
  PrimitiveContext ctx;
  ctx.alloc = &alloc;

  Xoshiro256 rng(k);
  std::vector<PackedKV> all;
  std::vector<const UArray*> sorted_parts;
  for (int part = 0; part < k; ++part) {
    const size_t n = 1000 + rng.NextBelow(2000);
    std::vector<PackedKV> kvs(n);
    for (auto& kv : kvs) {
      kv = PackKV(static_cast<uint32_t>(rng.NextBelow(300)),
                  static_cast<int32_t>(rng.Next32()));
    }
    all.insert(all.end(), kvs.begin(), kvs.end());
    auto arr = alloc.Create(sizeof(PackedKV), UArrayScope::kStreaming);
    ASSERT_TRUE(arr.ok());
    ASSERT_TRUE((*arr)->Append(kvs.data(), kvs.size() * sizeof(PackedKV)).ok());
    (*arr)->Produce();
    auto sorted = PrimSort(ctx, **arr);
    ASSERT_TRUE(sorted.ok());
    sorted_parts.push_back(*sorted);
  }
  auto merged = PrimMergeN(ctx, sorted_parts);
  ASSERT_TRUE(merged.ok());

  std::sort(all.begin(), all.end());
  auto span = (*merged)->Span<PackedKV>();
  ASSERT_EQ(span.size(), all.size());
  EXPECT_TRUE(std::equal(span.begin(), span.end(), all.begin()));

  // And the aggregate over the merge equals the aggregate over the reference.
  auto agg = PrimSumCnt(ctx, **merged);
  ASSERT_TRUE(agg.ok());
  std::map<uint32_t, std::pair<uint32_t, int64_t>> ref;
  for (PackedKV kv : all) {
    ref[UnpackKey(kv)].first += 1;
    ref[UnpackKey(kv)].second += UnpackValue(kv);
  }
  auto cells = (*agg)->Span<KeySumCount>();
  ASSERT_EQ(cells.size(), ref.size());
  size_t i = 0;
  for (const auto& [key, sc] : ref) {
    EXPECT_EQ(cells[i].key, key);
    EXPECT_EQ(cells[i].count, sc.first);
    EXPECT_EQ(cells[i].sum, sc.second);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, SplitInvariance, ::testing::Values(1, 2, 3, 5, 8, 16));

// --- compression robustness: random corruption never crashes, round trips always hold ----

TEST(CompressFuzz, RandomTruncationsFailCleanly) {
  Xoshiro256 rng(77);
  std::vector<AuditRecord> records;
  for (int i = 0; i < 500; ++i) {
    AuditRecord r;
    r.op = static_cast<PrimitiveOp>(10 + rng.NextBelow(20));
    r.ts_ms = static_cast<uint32_t>(i);
    r.inputs = {static_cast<uint32_t>(i)};
    r.outputs = {static_cast<uint32_t>(i + 1)};
    records.push_back(std::move(r));
  }
  const auto blob = EncodeAuditBatch(records);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t cut = rng.NextBelow(blob.size());
    std::vector<uint8_t> truncated(blob.begin(), blob.begin() + cut);
    auto decoded = DecodeAuditBatch(truncated);  // must not crash; may fail or decode a prefix
    (void)decoded;
  }
  // Bit flips: decode must either fail or produce *something* without crashing.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = blob;
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    auto decoded = DecodeAuditBatch(mutated);
    (void)decoded;
  }
  SUCCEED();
}

TEST(CompressFuzz, RoundTripRandomRecordShapes) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<AuditRecord> records(rng.NextBelow(60));
    uint32_t id = 1;
    for (auto& r : records) {
      r.op = static_cast<PrimitiveOp>(rng.NextBelow(37));
      r.ts_ms = static_cast<uint32_t>(rng.NextBelow(1u << 30));
      r.stream = static_cast<uint16_t>(rng.NextBelow(4));
      for (uint64_t k = rng.NextBelow(4); k > 0; --k) {
        r.inputs.push_back(id++);
      }
      for (uint64_t k = rng.NextBelow(4); k > 0; --k) {
        r.outputs.push_back(id++);
        if (r.op == PrimitiveOp::kSegment) {
          r.win_nos.push_back(static_cast<uint16_t>(rng.NextBelow(100)));
        }
      }
      if (r.op == PrimitiveOp::kWatermark) {
        r.watermark = static_cast<uint32_t>(rng.NextBelow(1u << 31));
      }
      if (rng.NextBelow(3) == 0) {
        r.hints.push_back(AuditHint::Parallel(static_cast<uint32_t>(rng.NextBelow(512))));
      }
      if (rng.NextBelow(5) == 0) {
        r.hints.push_back(AuditHint::After(static_cast<uint32_t>(rng.NextBelow(id))));
      }
    }
    // Segment win_nos must align with outputs for round-trip equality of that field.
    for (auto& r : records) {
      if (r.op != PrimitiveOp::kSegment) {
        r.win_nos.clear();
      } else {
        r.win_nos.resize(r.outputs.size(), 0);
      }
    }
    const auto blob = EncodeAuditBatch(records);
    auto decoded = DecodeAuditBatch(blob);
    ASSERT_TRUE(decoded.ok()) << trial;
    EXPECT_EQ(*decoded, records) << trial;
  }
}

// --- verifier mutation property: every single tampering of an honest stream is caught ----

std::vector<AuditRecord> HonestStream() {
  // Generate a real session with the engine itself.
  HarnessOptions opts;
  opts.version = EngineVersion::kSbtClearIngress;
  opts.engine.secure_pool_mb = 64;
  opts.engine.knobs.worker_threads = 2;
  opts.generator.batch_events = 5000;
  opts.generator.num_windows = 2;
  opts.generator.workload.kind = WorkloadKind::kSynthetic;
  opts.generator.workload.events_per_window = 10000;
  opts.verify_audit = false;

  const Pipeline pipeline = MakeDistinct(1000);
  DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  DataPlane dp(cfg);
  {
    Runner runner(&dp, pipeline, MakeRunnerConfig(opts.version, opts.engine));
    GeneratorConfig gen_cfg = opts.generator;
    Generator gen(gen_cfg);
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        EXPECT_TRUE(runner.AdvanceWatermark(frame->watermark).ok());
      } else {
        EXPECT_TRUE(runner.IngestFrame(frame->bytes, 0, frame->ctr_offset).ok());
      }
    }
    runner.Drain();
  }
  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  return records;
}

TEST(VerifierProperty, AnySingleRecordDeletionIsDetected) {
  const auto records = HonestStream();
  CloudVerifier verifier(MakeDistinct(1000).ToVerifierSpec());
  ASSERT_TRUE(verifier.Verify(records).correct);

  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].op == PrimitiveOp::kWatermark) {
      // Deleting a non-final watermark only worsens apparent freshness (a later watermark still
      // closes the window); record-stream tampering as such is prevented by the upload HMAC.
      // The replay targets control-plane misbehavior, so this deletion is out of its scope.
      continue;
    }
    auto tampered = records;
    tampered.erase(tampered.begin() + static_cast<long>(i));
    const auto report = verifier.Verify(tampered);
    EXPECT_FALSE(report.correct)
        << "deleting record " << i << " (" << PrimitiveOpName(records[i].op)
        << ") went undetected";
  }
}

TEST(VerifierProperty, AnySingleOpRetagIsDetected) {
  const auto records = HonestStream();
  CloudVerifier verifier(MakeDistinct(1000).ToVerifierSpec());
  Xoshiro256 rng(3);
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].op == PrimitiveOp::kWatermark) {
      continue;  // watermark value, not op, is its integrity anchor
    }
    auto tampered = records;
    PrimitiveOp new_op;
    do {
      new_op = static_cast<PrimitiveOp>(10 + rng.NextBelow(25));
    } while (new_op == records[i].op);
    tampered[i].op = new_op;
    const auto report = verifier.Verify(tampered);
    EXPECT_FALSE(report.correct)
        << "retagging record " << i << " from " << PrimitiveOpName(records[i].op) << " to "
        << PrimitiveOpName(new_op) << " went undetected";
  }
}

// --- shard-router re-homing properties (elastic resize relies on both) -------------------

TEST(ShardRouterProperty, ReHomingMovesAtMostTheExpectedFraction) {
  // Jump consistent hashing: changing the shard count N -> N' relocates ~1/max(N, N') of the
  // keys — growth moves only the keys the new shard must receive, shrink only the evicted
  // shard's keys. Modulo reduction would reshuffle nearly everything.
  constexpr size_t kKeys = 8192;
  const std::pair<uint32_t, uint32_t> transitions[] = {{2, 3}, {4, 5}, {5, 4},
                                                       {8, 9}, {9, 8}, {16, 17}};
  for (const auto& [n_from, n_to] : transitions) {
    const ShardRouter from(n_from);
    const ShardRouter to(n_to);
    Xoshiro256 rng(n_from * 131 + n_to);
    size_t moved = 0;
    std::vector<size_t> load(n_to, 0);
    for (size_t i = 0; i < kKeys; ++i) {
      const TenantId tenant = static_cast<TenantId>(1 + rng.NextBelow(64));
      const uint32_t source = rng.Next32();
      const uint32_t a = from.Route(tenant, source);
      const uint32_t b = to.Route(tenant, source);
      ASSERT_LT(a, n_from);
      ASSERT_LT(b, n_to);
      EXPECT_EQ(from.Route(tenant, source), a);  // stable across calls
      moved += (a != b) ? 1 : 0;
      ++load[b];
    }
    const double expected = static_cast<double>(kKeys) / std::max(n_from, n_to);
    EXPECT_LT(moved, expected * 1.5) << n_from << " -> " << n_to << " moved too much";
    EXPECT_GT(moved, expected * 0.5) << n_from << " -> " << n_to << " moved implausibly few";
    // And the new placement stays balanced.
    for (uint32_t s = 0; s < n_to; ++s) {
      EXPECT_GT(load[s], kKeys / n_to / 2) << "shard " << s << " starved";
      EXPECT_LT(load[s], kKeys / n_to * 2) << "shard " << s << " hoards";
    }
  }
}

TEST(ShardRouterProperty, MultiStreamTenantsNeverSplitAcrossReHoming) {
  // A multi-stream (Join) tenant is tenant-homed: under EVERY shard count, all of its sources
  // land on one shard — a resize moves the tenant atomically, never splitting its streams.
  TenantRegistry registry;
  for (TenantId t = 1; t <= 12; ++t) {
    ASSERT_TRUE(registry
                    .Add(MakeTenantSpec(t, "join-" + std::to_string(t), MakeJoin(1000),
                                        1u << 20))
                    .ok());
  }
  for (const uint32_t shards : {2u, 3u, 5u, 8u}) {
    EdgeServerConfig cfg;
    cfg.num_shards = shards;
    EdgeServer server(cfg, registry);
    for (TenantId t = 1; t <= 12; ++t) {
      const uint32_t home = server.RouteOf(t, 0);
      for (uint32_t source = 1; source < 32; ++source) {
        ASSERT_EQ(server.RouteOf(t, source), home)
            << "tenant " << t << " split at " << shards << " shards";
      }
    }
  }
}

// --- fused-vs-unfused boundary equivalence -----------------------------------------------
//
// Command-buffer fusion changes how chains cross the TEE boundary (one Submit instead of one
// Invoke per step), and must change NOTHING else: egress blobs, the audit stream, and the
// verifier's replay verdict are byte-identical between the two modes. A single worker pins the
// task schedule so uArray ids line up across runs.

struct SessionArtifacts {
  std::vector<WindowResult> results;
  std::vector<AuditRecord> records;
  VerifyReport report;
  uint64_t task_errors = 0;
  uint64_t switch_entries = 0;
};

std::vector<AuditRecord> StripTimestamps(std::vector<AuditRecord> records) {
  for (AuditRecord& r : records) {
    r.ts_ms = 0;
  }
  return records;
}

SessionArtifacts RunBoundarySession(const Pipeline& pipeline, WorkloadKind kind,
                                    bool fuse_chains) {
  HarnessOptions opts;
  opts.version = EngineVersion::kSbtClearIngress;
  opts.engine.secure_pool_mb = 64;
  opts.generator.batch_events = 5000;
  opts.generator.num_windows = 3;
  opts.generator.workload.kind = kind;
  opts.generator.workload.events_per_window = 12000;

  DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  DataPlane dp(cfg);
  SessionArtifacts out;
  {
    RunnerConfig rc;
    rc.knobs.worker_threads = 1;
    rc.knobs.fuse_chains = fuse_chains;
    Runner runner(&dp, pipeline, rc);
    Generator gen(opts.generator);
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        EXPECT_TRUE(runner.AdvanceWatermark(frame->watermark).ok());
      } else {
        EXPECT_TRUE(runner.IngestFrame(frame->bytes, 0, frame->ctr_offset).ok());
      }
      // Drain per frame: byte-comparing two runs needs one deterministic schedule, and the
      // LIFO pickup order otherwise depends on main-thread/worker timing.
      runner.Drain();
    }
    out.results = runner.TakeResults();
    out.task_errors = runner.stats().task_errors;
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return a.window_index < b.window_index;
            });
  dp.FlushAudit(&out.records);
  out.switch_entries = dp.switch_stats().entries;
  out.report = CloudVerifier(pipeline.ToVerifierSpec()).Verify(out.records);
  return out;
}

void ExpectByteIdentical(const SessionArtifacts& fused, const SessionArtifacts& unfused) {
  EXPECT_EQ(fused.task_errors, 0u);
  EXPECT_EQ(unfused.task_errors, 0u);

  // Egress: ciphertext, MACs, keystream offsets, element counts.
  ASSERT_EQ(fused.results.size(), unfused.results.size());
  for (size_t i = 0; i < fused.results.size(); ++i) {
    const WindowResult& a = fused.results[i];
    const WindowResult& b = unfused.results[i];
    EXPECT_EQ(a.window_index, b.window_index);
    ASSERT_EQ(a.blobs.size(), b.blobs.size()) << "window " << a.window_index;
    for (size_t j = 0; j < a.blobs.size(); ++j) {
      EXPECT_EQ(a.blobs[j].ciphertext, b.blobs[j].ciphertext) << "window " << a.window_index;
      EXPECT_TRUE(DigestEqual(a.blobs[j].mac, b.blobs[j].mac)) << "window " << a.window_index;
      EXPECT_EQ(a.blobs[j].elems, b.blobs[j].elems);
      EXPECT_EQ(a.blobs[j].ctr_offset, b.blobs[j].ctr_offset);
    }
  }

  // Audit stream: record-identical modulo wall-clock timestamps.
  EXPECT_EQ(StripTimestamps(fused.records), StripTimestamps(unfused.records));

  // Verifier replay verdict. `correct` alone is blind to a log that lost every ticketed
  // record (nothing left to contradict), so each side must also verify every window it
  // egressed.
  EXPECT_TRUE(fused.report.correct)
      << (fused.report.violations.empty() ? "" : fused.report.violations[0]);
  EXPECT_TRUE(unfused.report.correct)
      << (unfused.report.violations.empty() ? "" : unfused.report.violations[0]);
  EXPECT_FALSE(fused.results.empty());
  EXPECT_EQ(fused.report.windows_verified, fused.results.size());
  EXPECT_EQ(unfused.report.windows_verified, unfused.results.size());
  EXPECT_EQ(fused.report.hints_audited, unfused.report.hints_audited);

  // And the fusion actually fused: strictly fewer boundary crossings.
  EXPECT_LT(fused.switch_entries, unfused.switch_entries);
}

TEST(FusedEquivalence, DistinctPipelineIsByteIdentical) {
  const Pipeline p = MakeDistinct(1000);
  ExpectByteIdentical(RunBoundarySession(p, WorkloadKind::kTaxi, true),
                      RunBoundarySession(p, WorkloadKind::kTaxi, false));
}

TEST(FusedEquivalence, WinSumPipelineIsByteIdentical) {
  const Pipeline p = MakeWinSum(1000);
  ExpectByteIdentical(RunBoundarySession(p, WorkloadKind::kIntelLab, true),
                      RunBoundarySession(p, WorkloadKind::kIntelLab, false));
}

TEST(FusedEquivalence, PowerPipelineWithDeepCloseDagIsByteIdentical) {
  // Power's 7-stage window-close DAG fuses into a single submission; the replay must not be
  // able to tell.
  const Pipeline p = MakePower(1000);
  ExpectByteIdentical(RunBoundarySession(p, WorkloadKind::kPowerGrid, true),
                      RunBoundarySession(p, WorkloadKind::kPowerGrid, false));
}

TEST(FusedEquivalence, HoldsUnderInjectedWorldSwitchFaults) {
  // Seeded SMC faults abort and re-issue entries mid-session (including mid-Submit); they
  // burn cycles but must not change the executed dataflow.
  const Pipeline p = MakeDistinct(1000);
  const SessionArtifacts unfused = RunBoundarySession(p, WorkloadKind::kTaxi, false);
  testing::ScopedFailPoint fp("world_switch.fault",
                              testing::ScopedFailPoint::Seeded(/*seed=*/99, /*num=*/1,
                                                               /*den=*/8));
  const SessionArtifacts fused = RunBoundarySession(p, WorkloadKind::kTaxi, true);
  ExpectByteIdentical(fused, unfused);
}

// --- worker-count equivalence ------------------------------------------------------------
//
// Elastic intra-engine parallelism must be externally invisible: the audit hash chain (the
// WHOLE upload — raw bytes, compressed blob, MAC, chain position), the egress blobs, and the
// verifier's replay verdict are byte-identical for every worker_threads value, both boundary
// modes, and under injected faults. The sessions under test run free (no per-frame drain):
// workers genuinely race, execute chains out of order, and the retire ring (per-worker slot
// staging, frontier batch-commit) plus the watermark-ordered completion stage must put
// everything back in program order. logical_audit_timestamps replaces the wall clock so even
// record timestamps — and therefore the upload MACs — compare byte-for-byte.
//
// Each is compared against a pinned reference that never reorders tickets: one worker,
// drained after every frame. The reference proves this of itself — its
// sbt_ticket_commit_batch_tickets histogram must read Sum == Count, i.e. every frontier drain
// committed exactly one ticket, so the ring never held a retired ticket behind an open one.

struct WorkerSessionArtifacts {
  std::vector<WindowResult> results;
  AuditUpload upload;
  std::vector<AuditRecord> records;
  VerifyReport report;
  uint64_t task_errors = 0;
  uint64_t ingest_failures = 0;
};

// 3 windows of 12000 events, in 4000-event frames.
HarnessOptions WorkerSessionOptions(WorkloadKind kind) {
  HarnessOptions opts;
  opts.version = EngineVersion::kSbtClearIngress;
  opts.engine.secure_pool_mb = 64;
  opts.generator.batch_events = 4000;
  opts.generator.num_windows = 3;
  opts.generator.workload.kind = kind;
  opts.generator.workload.events_per_window = 12000;
  return opts;
}

DataPlaneConfig WorkerSessionConfig(const HarnessOptions& opts,
                                    const obs::MetricLabels& metric_labels) {
  DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  cfg.logical_audit_timestamps = true;
  cfg.metric_labels = metric_labels;
  return cfg;
}

WorkerSessionArtifacts RunWorkerSession(const Pipeline& pipeline, WorkloadKind kind,
                                        int worker_threads, bool fuse_chains = true,
                                        bool drain_per_frame = false,
                                        const obs::MetricLabels& metric_labels = {}) {
  const HarnessOptions opts = WorkerSessionOptions(kind);
  DataPlane dp(WorkerSessionConfig(opts, metric_labels));
  WorkerSessionArtifacts out;
  {
    RunnerConfig rc;
    rc.knobs.worker_threads = worker_threads;
    rc.knobs.fuse_chains = fuse_chains;
    Runner runner(&dp, pipeline, rc);
    Generator gen(opts.generator);
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        EXPECT_TRUE(runner.AdvanceWatermark(frame->watermark).ok());
      } else if (!runner.IngestFrame(frame->bytes, 0, frame->ctr_offset).ok()) {
        // Only the fault-injection properties may get here (counted and compared there);
        // everywhere else ExpectWorkerCountInvariant asserts zero.
        ++out.ingest_failures;
      }
      // NO drain by default: this is the schedule-independence property, not a pinned
      // schedule. Only the pinned reference drains per frame.
      if (drain_per_frame) {
        runner.Drain();
      }
    }
    runner.Drain();
    out.results = runner.TakeResults();
    out.task_errors = runner.stats().task_errors;
  }
  out.upload = dp.FlushAudit(&out.records);
  out.report = CloudVerifier(pipeline.ToVerifierSpec()).Verify(out.records);
  return out;
}

// Labels no other session in this process carries, so the session's instruments in the
// process-wide metrics registry start empty.
obs::MetricLabels UniqueSessionLabels() {
  static std::atomic<int> next{0};
  return {{"session", "pinned-reference-" + std::to_string(next.fetch_add(1))}};
}

// Every frontier drain of the labelled session committed exactly one ticket.
void ExpectCommittedOneTicketPerDrain(const obs::MetricLabels& labels) {
  const obs::Histogram* batches =
      obs::MetricsRegistry::Global().GetHistogram("sbt_ticket_commit_batch_tickets", labels);
  EXPECT_GT(batches->Count(), 0u);
  // Bucket 1 holds exactly the value 1. Sum == Count would also accept a 0-ticket drain (a
  // committer that lost the race and found the frontier drained) beside a 2-ticket one.
  EXPECT_EQ(batches->BucketCounts()[1], batches->Count())
      << "the pinned reference reordered tickets";
}

WorkerSessionArtifacts RunPinnedReference(const Pipeline& pipeline, WorkloadKind kind) {
  const obs::MetricLabels labels = UniqueSessionLabels();
  WorkerSessionArtifacts out = RunWorkerSession(pipeline, kind, /*worker_threads=*/1,
                                                /*fuse_chains=*/true,
                                                /*drain_per_frame=*/true, labels);
  ExpectCommittedOneTicketPerDrain(labels);
  return out;
}

// Byte-compares everything externally visible — egress blobs, the audit chain (records, raw
// encoding, compressed blob, MAC, chain position), and the replay verdict shape — WITHOUT
// assuming the sessions were fault-free. The fault-equivalence properties use this directly.
void ExpectSameExternalArtifacts(const WorkerSessionArtifacts& a,
                                 const WorkerSessionArtifacts& b) {
  // Results arrive in watermark order from the completion stage: compare positionally.
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].window_index, b.results[i].window_index);
    ASSERT_EQ(a.results[i].blobs.size(), b.results[i].blobs.size());
    for (size_t j = 0; j < a.results[i].blobs.size(); ++j) {
      EXPECT_EQ(a.results[i].blobs[j].ciphertext, b.results[i].blobs[j].ciphertext);
      EXPECT_TRUE(DigestEqual(a.results[i].blobs[j].mac, b.results[i].blobs[j].mac));
      EXPECT_EQ(a.results[i].blobs[j].elems, b.results[i].blobs[j].elems);
      EXPECT_EQ(a.results[i].blobs[j].ctr_offset, b.results[i].blobs[j].ctr_offset);
    }
  }

  // The audit chain, bytes and all: same records, same raw encoding, same compressed blob,
  // same MAC, same chain position. Nothing about the schedule can leak into attestation.
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const AuditRecord& ra = a.records[i];
    const AuditRecord& rb = b.records[i];
    EXPECT_EQ(ra.op, rb.op) << "record " << i;
    EXPECT_EQ(ra.ts_ms, rb.ts_ms) << "record " << i << " (" << PrimitiveOpName(ra.op) << ")";
    EXPECT_EQ(ra.inputs, rb.inputs) << "record " << i << " (" << PrimitiveOpName(ra.op) << ")";
    EXPECT_EQ(ra.outputs, rb.outputs)
        << "record " << i << " (" << PrimitiveOpName(ra.op) << ")";
    EXPECT_EQ(ra.win_nos, rb.win_nos) << "record " << i;
    EXPECT_EQ(ra.watermark, rb.watermark) << "record " << i;
    EXPECT_EQ(ra.stream, rb.stream) << "record " << i;
    ASSERT_EQ(ra.hints.size(), rb.hints.size()) << "record " << i;
    for (size_t h = 0; h < ra.hints.size(); ++h) {
      EXPECT_EQ(ra.hints[h].encoded, rb.hints[h].encoded)
          << "record " << i << " hint " << h << " (" << PrimitiveOpName(ra.op) << ")";
    }
  }
  EXPECT_EQ(a.upload.chain_seq, b.upload.chain_seq);
  EXPECT_TRUE(DigestEqual(a.upload.chain_prev, b.upload.chain_prev));
  EXPECT_EQ(a.upload.record_count, b.upload.record_count);
  EXPECT_EQ(a.upload.raw_bytes, b.upload.raw_bytes);
  EXPECT_EQ(a.upload.compressed, b.upload.compressed);
  EXPECT_TRUE(DigestEqual(a.upload.mac, b.upload.mac));

  EXPECT_EQ(a.report.correct, b.report.correct);
  EXPECT_EQ(a.report.windows_verified, b.report.windows_verified);
  EXPECT_EQ(a.report.hints_audited, b.report.hints_audited);
}

void ExpectWorkerCountInvariant(const WorkerSessionArtifacts& a,
                                const WorkerSessionArtifacts& b) {
  EXPECT_EQ(a.task_errors, 0u);
  EXPECT_EQ(b.task_errors, 0u);
  EXPECT_EQ(a.ingest_failures, 0u);
  EXPECT_EQ(b.ingest_failures, 0u);
  ExpectSameExternalArtifacts(a, b);
  EXPECT_TRUE(a.report.correct)
      << (a.report.violations.empty() ? "" : a.report.violations[0]);
  EXPECT_TRUE(b.report.correct)
      << (b.report.violations.empty() ? "" : b.report.violations[0]);
  // A verdict over a log that lost records can be vacuously correct: the replay must have
  // covered every window the session egressed.
  EXPECT_GT(a.results.size(), 0u);
  EXPECT_EQ(a.report.windows_verified, a.results.size());
}

TEST(WorkerEquivalence, DistinctPipelineAcrossWorkerCounts) {
  const Pipeline p = MakeDistinct(1000);
  const WorkerSessionArtifacts ref = RunPinnedReference(p, WorkloadKind::kTaxi);
  for (const int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectWorkerCountInvariant(ref, RunWorkerSession(p, WorkloadKind::kTaxi, workers));
  }
}

TEST(WorkerEquivalence, PowerPipelineDeepCloseDag) {
  // Power's 7-stage close DAG produces the longest per-ticket record vectors: the heaviest
  // load on the slot staging and the frontier batch-commit.
  const Pipeline p = MakePower(1000);
  ExpectWorkerCountInvariant(RunPinnedReference(p, WorkloadKind::kPowerGrid),
                             RunWorkerSession(p, WorkloadKind::kPowerGrid, 8));
}

TEST(WorkerEquivalence, WinSumPipelineIntermediateWorkerCounts) {
  const Pipeline p = MakeWinSum(1000);
  const WorkerSessionArtifacts ref = RunPinnedReference(p, WorkloadKind::kIntelLab);
  for (const int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectWorkerCountInvariant(ref, RunWorkerSession(p, WorkloadKind::kIntelLab, workers));
  }
}

TEST(WorkerEquivalence, UnfusedBoundaryAcrossWorkerCounts) {
  // The paper's call-per-primitive boundary under parallel workers: each chain step crosses
  // the TEE separately, still under one ticket. Against the fused reference, the boundary
  // mode and the worker count are BOTH invisible.
  const Pipeline p = MakeDistinct(1000);
  const WorkerSessionArtifacts ref = RunPinnedReference(p, WorkloadKind::kTaxi);
  for (const int workers : {1, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectWorkerCountInvariant(
        ref, RunWorkerSession(p, WorkloadKind::kTaxi, workers, /*fuse_chains=*/false));
  }
}

TEST(WorkerEquivalence, HoldsUnderInjectedWorldSwitchFaults) {
  // Seeded SMC faults abort and re-issue TEE entries at schedule-dependent points — different
  // entries fault at different worker counts — but a fault burns cycles without touching the
  // dataflow or the committed order, so the equivalence must survive.
  const Pipeline p = MakeDistinct(1000);
  const WorkerSessionArtifacts ref = RunPinnedReference(p, WorkloadKind::kTaxi);
  for (const uint64_t seed : {42u, 57u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testing::ScopedFailPoint fp("world_switch.fault",
                                testing::ScopedFailPoint::Seeded(seed, /*num=*/1, /*den=*/8));
    ExpectWorkerCountInvariant(ref, RunWorkerSession(p, WorkloadKind::kTaxi, 8));
  }
}

TEST(WorkerEquivalence, SeededAllocFaultsFailIdentically) {
  // Secure-DRAM exhaustion fails the chain. The pinned schedule fixes where the seeded fault
  // sequence lands, so two reference runs must fail the SAME chains and still produce
  // bit-identical artifacts, errors and all; their one-ticket-per-drain check shows a failed
  // ticket retires through the ring in order.
  const Pipeline p = MakeDistinct(1000);
  const auto run = [&] {
    testing::ScopedFailPoint fp("secure_world.alloc_frame",
                                testing::ScopedFailPoint::Seeded(/*seed=*/2026, /*num=*/1,
                                                                 /*den=*/7));
    return RunPinnedReference(p, WorkloadKind::kTaxi);
  };
  const WorkerSessionArtifacts first = run();
  const WorkerSessionArtifacts second = run();
  EXPECT_GT(first.task_errors + first.ingest_failures, 0u) << "p=1/7 over many draws";
  EXPECT_EQ(first.task_errors, second.task_errors);
  EXPECT_EQ(first.ingest_failures, second.ingest_failures);
  ExpectSameExternalArtifacts(first, second);
}

TEST(WorkerEquivalence, CheckpointAtRingFrontierIsByteIdentical) {
  // A checkpoint may only seal once the reorder ring is fully committed (frontier == next
  // ticket, open_tickets() == 0). A free-running session must quiesce mid-stream to the same
  // frontier as the pinned reference and flush the same chain link into the seal.
  const Pipeline p = MakeDistinct(1000);
  const auto run = [&](int workers, bool drain_per_frame, const obs::MetricLabels& labels) {
    const HarnessOptions opts = WorkerSessionOptions(WorkloadKind::kTaxi);
    DataPlane dp(WorkerSessionConfig(opts, labels));
    RunnerConfig rc;
    rc.knobs.worker_threads = workers;
    Runner runner(&dp, p, rc);
    Generator gen(opts.generator);
    int frames = 0;
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        EXPECT_TRUE(runner.AdvanceWatermark(frame->watermark).ok());
      } else {
        EXPECT_TRUE(runner.IngestFrame(frame->bytes, 0, frame->ctr_offset).ok());
      }
      if (++frames == 5) {
        break;  // checkpoint mid-stream: tickets in flight, ring hot
      }
      if (drain_per_frame) {
        runner.Drain();
      }
    }
    std::vector<WindowResult> results;
    auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({}, &results);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_EQ(dp.open_tickets(), 0u) << "seal before the commit frontier caught up";
    return std::pair<AuditUpload, std::vector<WindowResult>>(
        bundle.ok() ? bundle->audit : AuditUpload{}, std::move(results));
  };
  const obs::MetricLabels ref_labels = UniqueSessionLabels();
  const auto [ref_audit, ref_results] = run(1, /*drain_per_frame=*/true, ref_labels);
  ExpectCommittedOneTicketPerDrain(ref_labels);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto [audit, results] = run(workers, /*drain_per_frame=*/false, {});
    EXPECT_EQ(ref_audit.chain_seq, audit.chain_seq);
    EXPECT_TRUE(DigestEqual(ref_audit.chain_prev, audit.chain_prev));
    EXPECT_EQ(ref_audit.record_count, audit.record_count);
    EXPECT_EQ(ref_audit.raw_bytes, audit.raw_bytes);
    EXPECT_EQ(ref_audit.compressed, audit.compressed);
    EXPECT_TRUE(DigestEqual(ref_audit.mac, audit.mac));
    ASSERT_EQ(ref_results.size(), results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(ref_results[i].blobs.size(), results[i].blobs.size());
      for (size_t j = 0; j < results[i].blobs.size(); ++j) {
        EXPECT_EQ(ref_results[i].blobs[j].ciphertext, results[i].blobs[j].ciphertext);
      }
    }
  }
}

// --- SIMD kernel byte-equivalence --------------------------------------------------------
//
// The vectorized inner loops (simd_kernels.h) claim bit-identity with their scalar
// references: compacted elements are bit-copies and integer sums reassociate losslessly.
// Sweep every level the host supports against the scalar output on randomized inputs whose
// sizes straddle the vector widths and chunk boundaries, including the cross-chunk carries.

class ForcedSimdLevel {
 public:
  explicit ForcedSimdLevel(simd::SimdLevel level) { simd::ForceLevelForTest(level); }
  ~ForcedSimdLevel() { simd::ClearForcedLevelForTest(); }
};

TEST(SimdKernelEquivalence, AllLevelsMatchScalarReference) {
  Xoshiro256 rng(4242);
  const simd::SimdLevel levels[] = {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2};
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = rng.NextBelow(600) + (trial < 8 ? trial : 0);  // hit tiny sizes too

    std::vector<Event> events(n);
    for (Event& e : events) {
      e.ts_ms = static_cast<EventTimeMs>(rng.NextBelow(1u << 20));
      e.key = static_cast<uint32_t>(rng.NextBelow(64));
      e.value = static_cast<int32_t>(rng.Next32());
    }
    const int32_t lo = static_cast<int32_t>(rng.Next32() % 1000) - 500;
    const int32_t hi = lo + static_cast<int32_t>(rng.NextBelow(1u << 30));

    std::vector<int64_t> sorted(n);
    for (int64_t& v : sorted) {
      v = static_cast<int64_t>(rng.NextBelow(40)) - 20;  // heavy duplication
    }
    std::sort(sorted.begin(), sorted.end());
    std::vector<int64_t> packed(n);
    for (int64_t& v : packed) {
      v = PackKV(static_cast<uint32_t>(rng.NextBelow(30)),
                 static_cast<int32_t>(rng.Next32()));
    }
    std::sort(packed.begin(), packed.end());
    const int64_t prev = sorted.empty() ? 0 : sorted[0];
    const uint32_t prev_key = packed.empty() ? 0 : UnpackKey(packed[0]);

    // Scalar reference for every kernel, including the carry-in variants.
    std::vector<Event> ref_filtered(n);
    std::vector<int64_t> ref_dedup(n), ref_dedup_carry(n);
    std::vector<uint32_t> ref_unique(n), ref_unique_carry(n);
    size_t ref_nf, ref_nd, ref_ndc, ref_nu, ref_nuc;
    int64_t ref_sum_events, ref_sum_i64;
    {
      ForcedSimdLevel forced(simd::SimdLevel::kScalar);
      ref_nf = simd::FilterBandEvents(events.data(), n, lo, hi, ref_filtered.data());
      ref_sum_events = simd::SumEventValues(events.data(), n);
      ref_sum_i64 = simd::SumI64(sorted.data(), n);
      ref_nd = simd::DedupI64(sorted.data(), n, nullptr, ref_dedup.data());
      ref_ndc = simd::DedupI64(sorted.data(), n, &prev, ref_dedup_carry.data());
      ref_nu = simd::UniqueKeysPacked(packed.data(), n, nullptr, ref_unique.data());
      ref_nuc = simd::UniqueKeysPacked(packed.data(), n, &prev_key, ref_unique_carry.data());
    }

    for (const simd::SimdLevel level : levels) {
      if (level > simd::HostMaxLevel()) {
        continue;  // scalar-forced builds and pre-AVX2 hosts sweep what they can run
      }
      ForcedSimdLevel forced(level);
      std::vector<Event> filtered(n);
      EXPECT_EQ(simd::FilterBandEvents(events.data(), n, lo, hi, filtered.data()), ref_nf);
      EXPECT_EQ(std::memcmp(filtered.data(), ref_filtered.data(), ref_nf * sizeof(Event)), 0)
          << "level=" << simd::LevelName(level) << " n=" << n;
      EXPECT_EQ(simd::SumEventValues(events.data(), n), ref_sum_events);
      EXPECT_EQ(simd::SumI64(sorted.data(), n), ref_sum_i64);

      std::vector<int64_t> dedup(n);
      EXPECT_EQ(simd::DedupI64(sorted.data(), n, nullptr, dedup.data()), ref_nd);
      EXPECT_TRUE(std::equal(dedup.begin(), dedup.begin() + ref_nd, ref_dedup.begin()));
      EXPECT_EQ(simd::DedupI64(sorted.data(), n, &prev, dedup.data()), ref_ndc);
      EXPECT_TRUE(std::equal(dedup.begin(), dedup.begin() + ref_ndc, ref_dedup_carry.begin()));

      std::vector<uint32_t> unique(n);
      EXPECT_EQ(simd::UniqueKeysPacked(packed.data(), n, nullptr, unique.data()), ref_nu);
      EXPECT_TRUE(std::equal(unique.begin(), unique.begin() + ref_nu, ref_unique.begin()));
      EXPECT_EQ(simd::UniqueKeysPacked(packed.data(), n, &prev_key, unique.data()), ref_nuc);
      EXPECT_TRUE(
          std::equal(unique.begin(), unique.begin() + ref_nuc, ref_unique_carry.begin()));
    }
  }
}

TEST(SimdKernelEquivalence, ChunkedRunsMatchWholeRuns) {
  // The primitives feed these kernels in fixed-size chunks with carries; splitting at any
  // point with the carry threaded through must equal the unsplit run.
  Xoshiro256 rng(99);
  const size_t n = 1000;
  std::vector<int64_t> sorted(n);
  for (int64_t& v : sorted) {
    v = static_cast<int64_t>(rng.NextBelow(60));
  }
  std::sort(sorted.begin(), sorted.end());

  std::vector<int64_t> whole(n);
  const size_t n_whole = simd::DedupI64(sorted.data(), n, nullptr, whole.data());
  for (const size_t cut : {size_t{1}, size_t{7}, size_t{128}, size_t{999}}) {
    std::vector<int64_t> parts(n);
    const size_t a = simd::DedupI64(sorted.data(), cut, nullptr, parts.data());
    const int64_t carry = sorted[cut - 1];
    const size_t b = simd::DedupI64(sorted.data() + cut, n - cut, &carry, parts.data() + a);
    ASSERT_EQ(a + b, n_whole) << "cut=" << cut;
    EXPECT_TRUE(std::equal(parts.begin(), parts.begin() + n_whole, whole.begin()));
  }
}

TEST(VerifierProperty, ReplayedSessionsAreIndependent) {
  const auto records = HonestStream();
  CloudVerifier verifier(MakeDistinct(1000).ToVerifierSpec());
  const auto r1 = verifier.Verify(records);
  const auto r2 = verifier.Verify(records);
  EXPECT_EQ(r1.correct, r2.correct);
  EXPECT_EQ(r1.windows_verified, r2.windows_verified);
  EXPECT_EQ(r1.freshness.size(), r2.freshness.size());
}

}  // namespace
}  // namespace sbt
