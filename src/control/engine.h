// Engine versions used throughout the evaluation (paper Table 5).
//
//   StreamBox-TZ      data plane in TEE, trusted IO, encrypted ingress + egress
//   SBT ClearIngress  data plane in TEE, trusted IO, cleartext ingress (trusted source links)
//   SBT IOviaOS       data plane in TEE, ingress via the untrusted OS (extra boundary copy)
//   Insecure          everything in the normal world, cleartext — native StreamBox performance
//                     with SBT's optimized stream computations
//
// The factory builds the matching DataPlaneConfig + RunnerConfig pair.

#ifndef SRC_CONTROL_ENGINE_H_
#define SRC_CONTROL_ENGINE_H_

#include <span>
#include <string_view>
#include <vector>

#include "src/control/lifecycle.h"
#include "src/control/runner.h"
#include "src/core/checkpoint.h"
#include "src/core/data_plane.h"

namespace sbt {

enum class EngineVersion : uint8_t {
  kStreamBoxTz = 0,
  kSbtClearIngress = 1,
  kSbtIoViaOs = 2,
  kInsecure = 3,
};

inline std::string_view EngineVersionName(EngineVersion v) {
  switch (v) {
    case EngineVersion::kStreamBoxTz:
      return "StreamBox-TZ";
    case EngineVersion::kSbtClearIngress:
      return "SBT-ClearIngress";
    case EngineVersion::kSbtIoViaOs:
      return "SBT-IOviaOS";
    case EngineVersion::kInsecure:
      return "Insecure";
  }
  return "?";
}

struct EngineOptions {
  size_t secure_pool_mb = 512;
  // The shared execution knobs (worker_threads / fuse_chains), declared once in
  // src/core/exec_knobs.h and consumed by the Runner (MakeRunnerConfig copies them). Every
  // knob is byte-neutral (property-tested).
  ExecutionKnobs knobs;
  bool use_hints = true;
  PlacementPolicy placement = PlacementPolicy::kHintGuided;
};

inline DataPlaneConfig MakeEngineConfig(EngineVersion version, const EngineOptions& opts) {
  DataPlaneConfig cfg;
  cfg.partition.secure_dram_bytes = opts.secure_pool_mb << 20;
  cfg.partition.secure_page_bytes = 64u << 10;
  cfg.partition.group_reserve_bytes = opts.secure_pool_mb << 20;
  cfg.placement = opts.placement;
  for (size_t i = 0; i < kAesKeySize; ++i) {
    cfg.ingress_key[i] = static_cast<uint8_t>(0xa0 + i);
    cfg.egress_key[i] = static_cast<uint8_t>(0xb0 + i);
    cfg.mac_key[i] = static_cast<uint8_t>(0xc0 + i);
  }
  cfg.ingress_nonce.fill(0x01);
  cfg.egress_nonce.fill(0x02);

  switch (version) {
    case EngineVersion::kStreamBoxTz:
      cfg.decrypt_ingress = true;
      break;
    case EngineVersion::kSbtClearIngress:
      cfg.decrypt_ingress = false;
      break;
    case EngineVersion::kSbtIoViaOs:
      cfg.decrypt_ingress = true;
      break;
    case EngineVersion::kInsecure:
      cfg.decrypt_ingress = false;
      cfg.switch_cost = WorldSwitchConfig::Disabled();  // no TEE boundary at all
      break;
  }
  return cfg;
}

inline RunnerConfig MakeRunnerConfig(EngineVersion version, const EngineOptions& opts) {
  RunnerConfig rc;
  rc.knobs = opts.knobs;
  rc.use_hints = opts.use_hints;
  rc.ingest_path = (version == EngineVersion::kSbtIoViaOs) ? IngestPath::kViaOs
                                                           : IngestPath::kTrustedIo;
  return rc;
}

// Engine checkpoint/restore lives in EngineLifecycle (src/control/lifecycle.h) — the single
// lifecycle entrypoint for a DataPlane + Runner pair.

}  // namespace sbt

#endif  // SRC_CONTROL_ENGINE_H_
