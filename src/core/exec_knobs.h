// The execution knobs shared by every layer of an engine.
//
// worker_threads / fuse_chains / lockfree_retire used to live as loose fields duplicated across
// EngineOptions, RunnerConfig, and DataPlaneConfig with hand-copied propagation — a knob set at
// the top could silently fail to reach the bottom. They now live here once; each layer's config
// embeds the struct, and the single propagation point is ApplyExecutionKnobs
// (src/control/lifecycle.h). Every knob is byte-neutral: any setting yields the same audit
// chain, egress blobs, and verifier verdict (property-tested in tests/property_test.cc); they
// trade only performance. There is no submission-combining knob: world switches are per-core,
// so every worker submits its own chains and pays its own entry (README, "Per-core boundary").

#ifndef SRC_CORE_EXEC_KNOBS_H_
#define SRC_CORE_EXEC_KNOBS_H_

namespace sbt {

struct ExecutionKnobs {
  // Intra-engine worker threads (elastic pipeline parallelism). Consumed by the Runner.
  int worker_threads = 4;
  // Command-buffer fusion: one world switch per primitive chain (default). Off reproduces the
  // call-per-primitive boundary for the fig9 comparison series. Consumed by the Runner.
  bool fuse_chains = true;
  // Lock-free ticket retire (default). Off selects the legacy mutex-guarded reorder buffer.
  // Consumed by the DataPlane.
  bool lockfree_retire = true;
};

}  // namespace sbt

#endif  // SRC_CORE_EXEC_KNOBS_H_
