// Deterministic cluster orchestrator: the "cloud region in a process"
// control plane (DESIGN.md §12).
//
// An Orchestrator owns a fleet of per-shard machines (one SimCluster
// shard each) plus the control loop that runs on top of them in fixed
// control epochs of `epoch_ns` simulated nanoseconds:
//
//   1. SERVE (parallel, via SimCluster::Run) — every shard drains its
//      open-loop ArrivalProcess for the epoch window and serves each
//      request on one of its containers (round-robin over a per-container
//      busy_until queue), recording request latency into per-container
//      SloWindows. Arrivals are a pure function of (root seed, shard
//      index, simulated time) — traffic never slows down because the
//      service did.
//   2. CONTROL (serial, on the caller thread, shard-index order) —
//      collect a ClusterSnapshot of load signals, let the policy decide,
//      overlap deterministic chaos (FaultInjector machine/container
//      kills), then apply the surviving actions: CloneContainer on
//      scale-up, CKISNAP1 checkpoint/restore live migration off hot
//      shards, kill/reclaim on reap. Every kill is audited for leaked
//      frames on the spot.
//
// Determinism contract (DESIGN.md §9 lifted to the control plane): the
// serve phase touches only shard-local state; everything cross-shard
// (signals, decisions, chaos draws, migrations) happens serially in
// (epoch, shard index, container id) order. The control trace hash and
// cluster trace hash are therefore bit-identical at any --threads value.
//
// Thread-safety: none — construct, Run once, read results from one
// thread. Worker threads live only inside the serve phases.
#ifndef SRC_ORCH_ORCHESTRATOR_H_
#define SRC_ORCH_ORCHESTRATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/sim_cluster.h"
#include "src/fault/fault_injector.h"
#include "src/fault/gray_fault.h"
#include "src/net/load_gen.h"
#include "src/obs/metrics_registry.h"
#include "src/orch/policy.h"
#include "src/resil/resilience.h"
#include "src/runtime/runtime.h"
#include "src/sim/fnv.h"

namespace cki {

struct OrchConfig {
  uint32_t shards = 4;
  uint32_t threads = 1;  // serve-phase workers; never changes results
  uint64_t root_seed = 1;

  uint32_t epochs = 48;
  SimNanos epoch_ns = 1'000'000;   // 1 simulated ms per control epoch
  SimNanos slo_p99_ns = 400'000;   // request p99 target

  RuntimeKind kind = RuntimeKind::kCki;
  uint64_t cki_segment_pages = 1024;  // small segments for dense fleets
  uint32_t initial_containers = 2;    // per shard at boot
  uint32_t template_warm_pages = 64;  // template working set (pages)

  // Per-shard open-loop traffic: the arrival seed comes from
  // SplitSeed(root_seed, shard), the rate is base * (1 + skew * shard)
  // so later shards run hotter and the policy has real imbalance to fix.
  ArrivalConfig arrivals = ArrivalConfig::DiurnalBurst(/*seed=*/0, /*base=*/120'000);
  double shard_load_skew = 0;

  // Deterministic chaos, drawn once per epoch per machine / container
  // from the shard's FaultInjector (sites 8 and 9).
  double machine_kill_rate = 0;
  double container_kill_rate = 0;
  uint32_t machine_down_epochs = 4;  // epochs a killed machine stays dark

  // Per-request service work: syscalls plus this much extra app compute,
  // jittered deterministically per request in [min, max).
  SimNanos request_compute_min_ns = 1'000;
  SimNanos request_compute_max_ns = 5'000;

  // Gray-failure chaos (src/fault/gray_fault.h, sites 10-13): per-epoch
  // per-machine episode-start rates; `gray` holds the episode magnitudes
  // (its seed is overridden with SplitSeed(shard_seed, 3) per shard).
  double latency_inflation_rate = 0;
  double throughput_throttle_rate = 0;
  double packet_blackhole_rate = 0;
  double syscall_jitter_rate = 0;
  GrayConfig gray;

  // Request resilience layer (src/resil, DESIGN.md §13). enabled=false is
  // the crash-only baseline: no deadlines, no retries, no hedges, no
  // breakers, no shedding — a blackholed request is simply lost and a
  // gray machine keeps its full traffic share.
  ResilConfig resil;
};

// Fleet-level outcome of one orchestrated run.
struct OrchStats {
  uint64_t requests = 0;       // open-loop arrivals minted
  uint64_t served = 0;
  uint64_t lost = 0;           // arrivals with no machine/container to run on
  uint64_t epochs = 0;
  uint64_t epochs_slo_met = 0; // epoch p99 <= target and nothing lost
  uint64_t overall_p99_ns = 0; // p99 over every served request

  uint64_t clones = 0;           // scale-up cold starts (CoW clones)
  uint64_t template_boots = 0;   // full cold boots (initial + rebuilds)
  uint64_t migrations = 0;       // completed checkpoint->restore moves
  uint64_t migrations_aborted = 0;  // victim died mid-rebalance
  uint64_t reaps = 0;
  uint64_t machine_kills = 0;
  uint64_t container_kills = 0;
  uint64_t replacements = 0;   // scale-ups on shards below their minimum
  uint64_t leaked_frames = 0;  // nonzero means a reclaim path is broken

  // Gray failures + resilience (DESIGN.md §13).
  uint64_t gray_episodes = 0;  // degradation episodes opened fleet-wide
  uint64_t blackholed = 0;     // request attempts swallowed by blackholes
  uint64_t drains = 0;         // containers moved off gray machines
  uint64_t probes = 0;         // health probes executed
  uint64_t retries = 0;        // re-issued attempts, each paid from budget
  uint64_t retries_denied = 0; // retry wanted but the bucket was dry
  uint64_t hedges = 0;         // hedge requests actually fired
  uint64_t hedge_wins = 0;     // hedge finished before the primary
  uint64_t hedges_cancelled = 0;  // primary beat the hedge delay
  uint64_t sheds = 0;          // deadline-infeasible arrivals shed on admission
  uint64_t deadline_misses = 0;   // served, but past the deadline
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;

  double SloAttainment() const {
    return epochs > 0 ? static_cast<double>(epochs_slo_met) / static_cast<double>(epochs) : 0;
  }
  // Cold starts (clones + template boots) per 1000 requests.
  double ColdStartPerK() const {
    return requests > 0
               ? 1000.0 * static_cast<double>(clones + template_boots) /
                     static_cast<double>(requests)
               : 0;
  }
};

class Orchestrator {
 public:
  Orchestrator(const OrchConfig& config, const OrchPolicy& policy);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // Runs the full control loop (config.epochs epochs). Call once.
  OrchStats Run();

  const OrchConfig& config() const { return config_; }
  const OrchStats& stats() const { return stats_; }

  // FNV-1a digest of every policy decision and chaos strike, in
  // (epoch, shard index, container id) order.
  uint64_t control_hash() const { return control_hash_.value(); }
  // FNV-1a digest of every epoch's ClusterSnapshot plus each shard's
  // serve-phase event stream, folded in shard-index order.
  uint64_t cluster_hash() const { return cluster_hash_.value(); }
  // The two digests combined — the one number benches compare across
  // thread counts.
  uint64_t CombinedHash() const;

  // Fleet metrics (counters + request-latency histograms), merged across
  // shards in index order after Run.
  const MetricsRegistry& metrics() const { return metrics_; }
  // The last control epoch's snapshot (policy inputs; for tests/benches).
  const ClusterSnapshot& last_snapshot() const { return last_snapshot_; }

 private:
  struct Managed;     // one serving container
  struct ShardState;  // one machine + its fleet slice

  void BootShard(uint32_t index);                 // fresh machine + template
  void ServeEpoch(uint64_t epoch);                // parallel phase
  // One arrival through the resilience loop (shard-local; runs on the
  // serve-phase worker): pick -> shed check -> blackhole/retry -> serve
  // -> hedge -> breaker/budget bookkeeping.
  void ServeArrival(ShardState& s, SimNanos arrival, SimNanos jitter_span);
  // Round-robin over live containers; optionally skips open breakers and
  // one excluded container (hedge placement). nullptr when nothing fits.
  Managed* PickContainer(ShardState& s, SimNanos at, bool respect_breakers,
                         const Managed* exclude);
  // Executes the canonical request on `c` starting at `at`; returns the
  // gray-degraded service time (> 0), or 0 when the container failed it.
  SimNanos RunRequest(ShardState& s, Managed& c, SimNanos at, SimNanos jitter_span);
  ClusterSnapshot Collect(uint64_t epoch);        // serial signal sweep
  void Chaos(uint64_t epoch);                     // deterministic strikes
  void Apply(uint64_t epoch, const std::vector<OrchAction>& actions);
  void FinishEpoch(uint64_t epoch);               // SLO accounting + hashes

  // Kills `c`'s engine (if alive) and audits the reclaim; folds any
  // leaked frame count into stats_.leaked_frames.
  void KillAndAudit(ShardState& shard, Managed& c);

  OrchConfig config_;
  const OrchPolicy& policy_;
  SimCluster cluster_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  OrchStats stats_;
  MetricsRegistry metrics_;
  ClusterSnapshot last_snapshot_;
  Digest control_hash_;
  Digest cluster_hash_;
  bool ran_ = false;
};

}  // namespace cki

#endif  // SRC_ORCH_ORCHESTRATOR_H_
