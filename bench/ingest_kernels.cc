// Per-frame cost of the control thread's ingest kernels at fig7 geometry (100k-event frames,
// 1M-event windows). Runner::IngestFrame spends each frame in two data-plane calls — IngestBatch
// (AES-CTR decrypt + copy into secure memory) and the Segment invoke — and this bench times
// both, plus their kernels on their own: Aes128Ctr::Crypt and PrimSegment over tumbling and
// sliding windows. One thread on a quiet engine; every figure is the median over frames.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/control/engine.h"
#include "src/core/data_plane.h"
#include "src/crypto/aes128.h"
#include "src/net/generator.h"
#include "src/primitives/primitives.h"
#include "src/tz/secure_world.h"
#include "src/uarray/allocator.h"

namespace sbt {
namespace {

constexpr uint32_t kFrameEvents = 100000;
constexpr uint32_t kWindowEvents = 1000000;
constexpr uint32_t kWindowMs = 1000;

double MedianMs(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void RunIngestKernels() {
  const int frames_per_kernel = 20 * BenchScale();
  const EngineOptions engine;
  DataPlaneConfig dp_cfg = MakeEngineConfig(EngineVersion::kStreamBoxTz, engine);

  GeneratorConfig gen_cfg;
  gen_cfg.workload.kind = WorkloadKind::kSynthetic;
  gen_cfg.workload.window_ms = kWindowMs;
  gen_cfg.workload.events_per_window = kWindowEvents;
  gen_cfg.batch_events = kFrameEvents;
  gen_cfg.num_windows = (static_cast<uint32_t>(frames_per_kernel) * kFrameEvents +
                         kWindowEvents - 1) / kWindowEvents;
  gen_cfg.encrypt = true;
  gen_cfg.key = dp_cfg.ingress_key;
  gen_cfg.nonce = dp_cfg.ingress_nonce;
  Generator gen(gen_cfg);
  std::vector<Frame> frames;
  while (auto frame = gen.NextFrame()) {
    if (!frame->is_watermark) {
      frames.push_back(std::move(*frame));
    }
  }
  const size_t event_size = gen.event_size();

  PrintHeader("Control-thread ingest kernels per 100k-event frame (fig7 geometry)",
              "data plane optimized for the TEE; ingestion up to 12M ev/s");
  std::printf("%-18s %10s %10s\n", "kernel", "ms/frame", "Mev/s");
  JsonBenchReport report("ingest_kernels");
  auto row = [&](const char* kernel, const std::vector<double>& ms) {
    const double median = MedianMs(ms);
    const double mevents = kFrameEvents / (median * 1e3);
    std::printf("%-18s %10.3f %10.1f\n", kernel, median, mevents);
    report.BeginRow()
        .Str("kernel", kernel)
        .Int("events_per_frame", kFrameEvents)
        .Int("frames", ms.size())
        .Bool("hardware_aes", HardwareAesSupported())
        .Num("ms_per_frame_p50", median)
        .Num("mevents_per_sec", mevents);
  };

  // Keystream alone: decrypt each frame in place (a copy, so every frame stays ciphertext).
  {
    const Aes128Ctr cipher(dp_cfg.ingress_key,
                           std::span<const uint8_t>(dp_cfg.ingress_nonce.data(), 12));
    std::vector<double> ms;
    for (const Frame& frame : frames) {
      std::vector<uint8_t> bytes = frame.bytes;
      ms.push_back(TimeMs([&] { cipher.Crypt(bytes, frame.ctr_offset); }));
    }
    row("aes_ctr", ms);
  }

  // PrimSegment alone, on plaintext frames in a secure allocator.
  for (const SlidingWindowFn fn : {SlidingWindowFn{kWindowMs, kWindowMs},
                                   SlidingWindowFn{kWindowMs, kWindowMs / 4}}) {
    SecureWorld world(dp_cfg.partition);
    UArrayAllocator alloc(&world);
    PrimitiveContext ctx;
    ctx.alloc = &alloc;
    ctx.hint = PlacementHint::Parallel(0);
    const Aes128Ctr cipher(dp_cfg.ingress_key,
                           std::span<const uint8_t>(dp_cfg.ingress_nonce.data(), 12));
    std::vector<double> ms;
    for (const Frame& frame : frames) {
      std::vector<uint8_t> plain = frame.bytes;
      cipher.Crypt(plain, frame.ctr_offset);
      auto input = alloc.Create(event_size, UArrayScope::kStreaming);
      SBT_CHECK(input.ok() && (*input)->Append(plain.data(), plain.size()).ok());
      (*input)->Produce();
      Result<std::vector<SegmentOutput>> outputs = InvalidArgument("not run");
      ms.push_back(TimeMs([&] { outputs = PrimSegment(ctx, **input, fn); }));
      SBT_CHECK(outputs.ok());
      for (const SegmentOutput& o : *outputs) {
        alloc.Retire(o.events);
      }
      alloc.Retire(*input);
    }
    row(fn.slide_ms == fn.size_ms ? "segment_tumbling" : "segment_sliding", ms);
  }

  // The data-plane calls IngestFrame makes, in its order: IngestBatch, then the Segment invoke.
  {
    DataPlane dp(dp_cfg);
    std::vector<double> ingest_ms;
    std::vector<double> segment_ms;
    for (const Frame& frame : frames) {
      Result<OutputInfo> ingested = InvalidArgument("not run");
      ingest_ms.push_back(TimeMs([&] {
        ingested = dp.IngestBatch(frame.bytes, event_size, 0, IngestPath::kTrustedIo,
                                  frame.ctr_offset);
      }));
      SBT_CHECK(ingested.ok());
      InvokeRequest seg;
      seg.op = PrimitiveOp::kSegment;
      seg.inputs = {ingested->ref};
      seg.params.window_size_ms = kWindowMs;
      seg.params.window_slide_ms = kWindowMs;
      seg.hint = HintRequest::Parallel(0);
      Result<InvokeResponse> windowed = InvalidArgument("not run");
      segment_ms.push_back(TimeMs([&] { windowed = dp.Invoke(seg); }));
      SBT_CHECK(windowed.ok());
      for (const OutputInfo& out : windowed->outputs) {
        SBT_CHECK(dp.Release(out.ref).ok());
      }
      dp.FlushAudit();
    }
    row("ingest_batch", ingest_ms);
    row("segment_invoke", segment_ms);
  }
  report.Write();
}

}  // namespace
}  // namespace sbt

int main() {
  sbt::RunIngestKernels();
  return 0;
}
