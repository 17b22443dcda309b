// The benchmark's three workloads. Each builds its cluster and tenants
// through the public API, runs set-up, a measured phase of a fixed op
// count, and the background convergence that follows, all inside simulator
// events (see bench.h).
#ifndef URSABENCH_WORKLOADS_H_
#define URSABENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace ursabench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double scale = 1.0;  // multiplies every op count (short determinism runs)
};

struct Outcome {
  // Simulated seconds of background convergence: journal replay drained
  // after the measured phase (vm_fleet, scale_out); from the crash until
  // every victim chunk is whole again and the demotion wave is done
  // (bg_storm).
  double converge_s = 0;
  double stored_per_user_byte = 0;  // Master::PhysicalBytes() / LogicalBytes()
};

bool IsWorkload(const std::string& name);
Outcome RunWorkload(Bench& bench, const RunConfig& config);

}  // namespace ursabench

#endif  // URSABENCH_WORKLOADS_H_
