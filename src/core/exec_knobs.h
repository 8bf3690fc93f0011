// The execution knobs of an engine: worker_threads and fuse_chains.
//
// Both are declared here once. EngineOptions carries them from the top and MakeRunnerConfig
// copies them into RunnerConfig; the Runner is their only consumer. Every knob is
// byte-neutral: any setting yields the same audit chain, egress blobs, and verifier verdict
// (property-tested in tests/property_test.cc); they trade only performance.

#ifndef SRC_CORE_EXEC_KNOBS_H_
#define SRC_CORE_EXEC_KNOBS_H_

namespace sbt {

struct ExecutionKnobs {
  // Intra-engine worker threads (elastic pipeline parallelism). Consumed by the Runner.
  int worker_threads = 4;
  // Command-buffer fusion: one world switch per primitive chain (default). Off reproduces the
  // call-per-primitive boundary for the fig9 comparison series. Consumed by the Runner.
  bool fuse_chains = true;
};

}  // namespace sbt

#endif  // SRC_CORE_EXEC_KNOBS_H_
