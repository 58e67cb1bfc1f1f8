// Seeded deterministic fault injector ("chaos mode").
//
// Armed per-run with per-site rates, the injector answers "should this
// operation fail right now?" from a private xorshift64* stream — no
// wall-clock, no global state — so the same seed and the same sequence of
// queries produce the bit-identical decision sequence and an identical
// FNV-1a trace hash (the vswitch.h determinism contract applied to
// faults). Sites that are disarmed (rate <= 0) consume no draw, so arming
// one site does not perturb the decision stream of another.
//
// Thread-safety: none — an injector's decision stream is serial by
// definition, so each injector belongs to one shard/machine and is only
// queried from that shard's thread. For cluster runs, derive one
// injector per shard from SimCluster::ShardSeed(root_seed, shard_index)
// (the same split scheme this class's xorshift64* stream uses): shard
// streams are decorrelated, and the whole fleet's chaos schedule is a
// pure function of the root seed.
// Ownership: self-contained value type; engines hold a non-owning
// pointer via set_injector, so the injector must outlive the run.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/sim/fnv.h"
#include "src/sim/seed_split.h"

namespace cki {

struct InjectorConfig {
  uint64_t seed = 1;
  // Per-site injection probabilities in [0, 1]; 0 disarms the site.
  double pks_violation_rate = 0;    // spurious PKS trap on a user touch
  double pte_flip_rate = 0;         // bit-flip in a guest PTE store
  double segment_oom_rate = 0;      // premature delegated-segment exhaustion
  double virtio_corrupt_rate = 0;   // malformed virtio RX descriptor
  double packet_drop_rate = 0;      // vswitch drops a forwarded packet
  double packet_dup_rate = 0;       // vswitch duplicates a forwarded packet
  double snapshot_corrupt_rate = 0; // bit-flip in a serialized snapshot
  // Orchestration chaos (src/orch): queried once per control epoch per
  // machine / per managed container, so the rate is "per epoch".
  double machine_kill_rate = 0;     // whole simulated machine drops dead
  double container_kill_rate = 0;   // one container dies mid-rebalance
  // Gray-failure episode starts (src/fault/gray_fault.h): queried once per
  // epoch per machine, so each rate is "episodes begun per epoch". The
  // struck machine stays alive but degraded for the episode length.
  double latency_inflation_rate = 0;    // service latency silently inflated
  double throughput_throttle_rate = 0;  // link/NIC serialization rate cut
  double packet_blackhole_rate = 0;     // intermittent packet loss
  double syscall_jitter_rate = 0;       // slow-syscall stalls
  // Storage chaos (src/blkfs): queried once per device block read, so the
  // rate is "per read request". Advisory — surfaces as -EIO, never a kill.
  double blkfs_io_error_rate = 0;       // device read fails into blkfs
};

class FaultInjector {
 public:
  explicit FaultInjector(const InjectorConfig& config)
      : config_(config), rng_(config.seed) {}

  const InjectorConfig& config() const { return config_; }

  bool InjectPksViolation() { return Draw(config_.pks_violation_rate, 1); }
  bool InjectPteFlip() { return Draw(config_.pte_flip_rate, 2); }
  bool InjectSegmentOom() { return Draw(config_.segment_oom_rate, 3); }
  bool InjectVirtioCorruption() { return Draw(config_.virtio_corrupt_rate, 4); }
  bool InjectPacketDrop() { return Draw(config_.packet_drop_rate, 5); }
  bool InjectPacketDup() { return Draw(config_.packet_dup_rate, 6); }
  bool InjectSnapshotCorruption() { return Draw(config_.snapshot_corrupt_rate, 7); }
  bool InjectMachineKill() { return Draw(config_.machine_kill_rate, 8); }
  bool InjectContainerKill() { return Draw(config_.container_kill_rate, 9); }
  bool InjectLatencyInflation() { return Draw(config_.latency_inflation_rate, 10); }
  bool InjectThroughputThrottle() { return Draw(config_.throughput_throttle_rate, 11); }
  bool InjectPacketBlackhole() { return Draw(config_.packet_blackhole_rate, 12); }
  bool InjectSyscallJitter() { return Draw(config_.syscall_jitter_rate, 13); }
  bool InjectBlkfsIoError() { return Draw(config_.blkfs_io_error_rate, 14); }

  uint64_t draws() const { return draws_; }
  uint64_t injected() const { return injected_; }

  // FNV-1a digest over (site, draw index) of every injected fault, in
  // order. Same seed + same query sequence => identical hash.
  uint64_t trace_hash() const { return trace_hash_.value(); }

 private:
  bool Draw(double rate, uint8_t site) {
    if (rate <= 0) {
      return false;  // disarmed sites do not consume a draw
    }
    draws_++;
    double u = rng_.NextUnit();
    if (u >= rate) {
      return false;
    }
    injected_++;
    trace_hash_.Mix({site, draws_});
    return true;
  }

  InjectorConfig config_;
  XorShift64Star rng_;  // the shared fold + step scheme (seed_split.h)
  uint64_t draws_ = 0;
  uint64_t injected_ = 0;
  Digest trace_hash_;
};

}  // namespace cki

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
