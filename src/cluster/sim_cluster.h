// Parallel multi-machine scale-out runner: a simulated fleet.
//
// A SimCluster shards N fully independent simulated machines ("shards")
// across a bounded pool of OS threads. Each shard owns everything it
// touches — its Machine, virtual clock, engines, workloads, observability
// hub — so shards share no mutable state and the simulation stays
// single-threaded *per shard* (the FaultBus / engine "not thread-safe"
// contracts are never violated: no object is ever reached from two
// threads).
//
// Determinism contract (the vswitch.h / fault_injector.h contract lifted
// to fleet level):
//
//  * Per-shard seeds are split from one root seed with the same
//    xorshift64* scheme FaultInjector uses, so shard k's seed depends
//    only on (root_seed, k) — never on thread count, scheduling order,
//    or sibling shards.
//  * Results are collected into a slot per shard and merged in shard-
//    index order after the pool joins, so every merged artifact
//    (metrics, histograms, report rows, the cluster trace hash) is
//    bit-identical regardless of how many threads ran the shards or in
//    which order they finished.
//  * A shard that dies — FatalHostError from its own machine, or any
//    other exception escaping the body — is recorded as a failed
//    ShardResult; sibling shards are untouched (per-shard blast radius,
//    the DESIGN.md §8 invariant applied across machines).
//
// Thread-safety: SimCluster::Run is itself single-threaded to call (one
// call at a time per SimCluster); the body runs concurrently on pool
// threads and must only touch shard-local state plus the read-only
// captures of the caller. ShardResult/ClusterResult are plain values
// owned by the caller after Run returns.
#ifndef SRC_CLUSTER_SIM_CLUSTER_H_
#define SRC_CLUSTER_SIM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/metrics_registry.h"
#include "src/obs/observability.h"
#include "src/sim/clock.h"
#include "src/sim/fnv.h"

namespace cki {

struct ClusterConfig {
  // Number of independent simulated machines to run.
  uint32_t shards = 1;
  // Worker OS threads; clamped to [1, shards]. Thread count changes
  // wall-clock time only, never results.
  uint32_t threads = 1;
  // Root of the deterministic per-shard seed split.
  uint64_t root_seed = 1;
};

// Handed to the shard body: identity plus the deterministic seed every
// shard-local RNG / FaultInjector must derive from.
struct ShardTask {
  uint32_t index = 0;   // shard index in [0, shards)
  uint32_t shards = 1;  // total shard count of this run
  uint64_t seed = 1;    // SimCluster::ShardSeed(root_seed, index)
};

// Everything one shard hands back. Owned by the shard thread while the
// body runs, then moved into the caller's ClusterResult — after Run
// returns, exactly one thread (the caller) can see it.
struct ShardResult {
  uint32_t index = 0;
  bool ok = true;
  std::string error;  // exception message when !ok

  // Simulated nanoseconds the shard's virtual clock advanced.
  SimNanos sim_ns = 0;

  // Named scalar results; merged key-wise in shard-index order.
  std::map<std::string, double> values;

  // Shard-local metrics (counters + histograms), merged in shard-index
  // order by ClusterResult::MergedMetrics.
  MetricsRegistry metrics;

  // The shard machine's detached observability hub
  // (Observability::Detach), so --trace-out keeps working under
  // parallelism: each shard becomes its own process track.
  Observability obs;

  // Folds `v` into this shard's FNV-1a determinism digest. Mix every
  // result that must be reproduction-stable (per-op latencies, injector
  // and fault-bus hashes, packet hashes, ...), in a fixed order.
  void HashMix(uint64_t v) { trace_hash_.Mix(v); }
  uint64_t trace_hash() const { return trace_hash_.value(); }

 private:
  Digest trace_hash_;
};

// The merged outcome of one cluster run. Shards are ordered by index.
class ClusterResult {
 public:
  explicit ClusterResult(std::vector<ShardResult> shards) : shards_(std::move(shards)) {}

  const std::vector<ShardResult>& shards() const { return shards_; }
  size_t shard_count() const { return shards_.size(); }
  size_t failed_count() const;
  bool all_ok() const { return failed_count() == 0; }

  // Total simulated ns across shards (shards run concurrently in the
  // fiction too, so this is aggregate machine-time, not latency).
  SimNanos TotalSimNs() const;

  // Sum of `values[name]` over successful shards, in shard-index order
  // (bit-stable float accumulation).
  double SumValue(const std::string& name) const;

  // All successful shards' metrics merged in shard-index order.
  MetricsRegistry MergedMetrics() const;

  // Cluster-level FNV-1a determinism digest: per-shard
  // (index, ok, sim_ns, trace_hash) in shard-index order. Two runs with
  // the same root seed and workload produce the same digest at any
  // thread count.
  uint64_t trace_hash() const;

 private:
  std::vector<ShardResult> shards_;
};

// The runner. Construction is cheap; threads live only inside Run.
class SimCluster {
 public:
  using ShardBody = std::function<ShardResult(const ShardTask&)>;

  explicit SimCluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }

  // Runs `body` once per shard on the pool and returns the merged,
  // index-ordered results. Exceptions escaping the body fail only that
  // shard. Call from one thread at a time.
  ClusterResult Run(const ShardBody& body) const;

  // Deterministic seed for shard `shard_index` under `root_seed`:
  // xorshift64* advanced index+1 steps from the folded root (the
  // FaultInjector scheme), so distinct shards get decorrelated streams
  // and the mapping is pure — no global state, no wall clock.
  static uint64_t ShardSeed(uint64_t root_seed, uint32_t shard_index);

 private:
  ClusterConfig config_;
};

}  // namespace cki

#endif  // SRC_CLUSTER_SIM_CLUSTER_H_
