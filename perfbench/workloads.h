// The benchmark's four workloads, each driven through the simulator's
// public API. A workload runs its fixed, seeded simulated work in rounds:
// Setup() builds the inputs and runs one warm-up round that becomes the
// reference, and every timed round must reproduce that reference exactly.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace perfbench {

// Public counters summed over a round, keyed by a stable name.
using Counters = std::map<std::string, double>;

struct Options {
  uint64_t seed = 1;
  // Test hooks that prove the checks can fail: every digest check compares
  // against a wrong expected value, or every container kill leaks a frame.
  bool corrupt_digest = false;
  bool leak_frame = false;
};

// What a round (or a verification pass) did and whether its outputs held.
struct Outcome {
  uint64_t ops = 0;     // the workload's op
  uint64_t events = 0;  // simulated path events
  double sim_ns = 0;    // simulated ns over `sim_ops` ops
  uint64_t sim_ops = 0;
  uint64_t attempted = 0;  // checked steps
  uint64_t failed = 0;     // steps with at least one failed check
  uint64_t digest = 0;     // determinism digest of the round
  Counters counters;
  std::vector<double> step_ns;  // host wall time of each step, in order

  // Records one step; `failures` lists its failed checks (empty: passed).
  void EndStep(const std::string& failures);
  // Adds `other`'s counts; step times stay per round.
  void Add(const Outcome& other);
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input of the timed region, then runs the warm-up round,
  // which becomes the reference the timed rounds are checked against.
  virtual void Setup(Tracer* tracer) = 0;
  // One round of the fixed, seeded work. A null tracer is the untraced run.
  virtual Outcome Round(Tracer* tracer) = 0;
  // Output checks that run once, after the timed region.
  virtual Outcome Verify() = 0;
  // Traced-run probes beyond the rounds (parallel speedup, telemetry cost):
  // each sets per-layer metrics by name, and adds the checks it makes.
  virtual void Probe(std::map<std::string, double>& metrics, Outcome& checks) = 0;

  // The reference round, from Setup().
  const Outcome& reference() const { return reference_; }

 protected:
  Outcome reference_;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name, const Options& options);
const std::vector<std::string>& WorkloadNames();

// Worker threads of the parallel probes: min(nproc, 4).
uint32_t ParallelThreads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
