// Per-container fault domains: blast-radius containment for the simulator.
//
// CKI's headline claim is isolation — a compromised or buggy guest kernel
// must be contained to its own container while the host and neighbor
// containers keep running (paper section 1). The FaultBus realizes that
// claim in the simulation: container-attributable faults (protection
// violations, rejected PTP verdicts, PKS traps, resource exhaustion,
// virtio corruption) are routed to the owning container's fault domain,
// which kills that container — tearing down its processes, reclaiming its
// frames, flushing its PCID range — while the Machine and every other
// engine keep running. Host-fatal conditions (missing hardware extensions
// at construction, host-owned allocation failures) surface through one
// typed exception, FatalHostError, instead of std::abort().
//
// Determinism contract (mirrors vswitch.h): every recorded fault is mixed
// into an FNV-1a trace hash in arrival order; two runs that experience the
// same fault sequence produce bit-identical hashes.
//
// Thread-safety: none — a FaultBus belongs to one Machine and both are
// driven from that machine's single simulation thread. Scale-out happens
// one bus per shard (SimCluster): a kill, or even a FatalHostError, in
// one shard can never reach a sibling shard's bus. Fold each shard's
// trace_hash() into its ShardResult to carry the contract fleet-wide.
// Ownership: the bus borrows its SimContext (outlived by the Machine)
// and owns the registered domains/hooks; handlers and hooks are
// std::functions whose captures must outlive the registration
// (engines/devices unregister in their destructors).
#ifndef SRC_FAULT_FAULT_DOMAIN_H_
#define SRC_FAULT_FAULT_DOMAIN_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/fnv.h"

namespace cki {

class SimContext;
class MetricsRegistry;

// Taxonomy of container-attributable faults. Crash kinds map to "kill the
// owning container", never "abort the machine" (DESIGN.md section 8); the
// gray kinds (latency inflation, throttling, blackhole, syscall jitter —
// DESIGN.md section 13) are advisory degradation episodes: the component
// is alive but wrong-slow, so they are Note()d, never killed on.
enum class FaultKind : uint8_t {
  kProtectionViolation = 0,  // guest touched memory it does not own
  kPtpVerdictRejected,       // KSM monitor rejected a page-table update
  kPksTrap,                  // PKS violation trapped in a deprivileged guest
  kSegmentExhausted,         // delegated contiguous segment ran dry
  kFrameExhausted,           // host frame allocator ran dry on a guest alloc
  kDoubleFree,               // frame freed twice (allocator corruption)
  kVirtioRingCorruption,     // malformed descriptor in a virtio ring
  kNicOverload,              // sustained RX-ring overrun (backpressure gauge)
  kSnapshotCorrupt,          // snapshot stream failed its content hash
  kLatencyInflation,         // gray: machine serves, but inflated (advisory)
  kThroughputThrottle,       // gray: link/NIC rate silently degraded
  kPacketBlackhole,          // gray: intermittent packet loss episode
  kSyscallJitter,            // gray: slow-syscall stalls on a live machine
  kBlkfsIoError,             // advisory: device read failed into the blkfs
                             // path (surfaced to the guest as -EIO, no kill)
  kCount,
};

inline constexpr auto kFaultKindNames = std::to_array<std::string_view>({
    "protection_violation",
    "ptp_verdict_rejected",
    "pks_trap",
    "segment_exhausted",
    "frame_exhausted",
    "double_free",
    "virtio_ring_corruption",
    "nic_overload",
    "snapshot_corrupt",
    "latency_inflation",
    "throughput_throttle",
    "packet_blackhole",
    "syscall_jitter",
    "blkfs_io_error",
});
static_assert(kFaultKindNames.size() == static_cast<size_t>(FaultKind::kCount),
              "kFaultKindNames must cover every FaultKind");

inline constexpr std::string_view FaultKindName(FaultKind k) {
  return kFaultKindNames[static_cast<size_t>(k)];
}

// Inverse of FaultKindName (the PathEventFromName pattern); nullopt for
// unknown names. Bench flag parsing (--chaos-kinds) goes through here so a
// renamed kind breaks loudly instead of silently disarming a site.
inline constexpr std::optional<FaultKind> FaultKindFromName(std::string_view name) {
  for (size_t i = 0; i < kFaultKindNames.size(); ++i) {
    if (kFaultKindNames[i] == name) {
      return static_cast<FaultKind>(i);
    }
  }
  return std::nullopt;
}

// One typed fault. `owner` is the container OwnerId the fault is
// attributed to (0 = host); `detail` is kind-specific (faulting address,
// rejected verdict, flow id, ...). Plain uint32_t/uint64_t keep this
// header free of host-layer dependencies.
struct FaultReport {
  FaultKind kind = FaultKind::kProtectionViolation;
  uint32_t owner = 0;
  uint64_t detail = 0;
};

// Host-fatal condition: the simulated machine itself cannot continue
// (missing hardware extension at construction, host-owned resource
// exhaustion). Replaces std::abort() so the bench harness and tests can
// observe the failure instead of dying with it.
class FatalHostError : public std::runtime_error {
 public:
  explicit FatalHostError(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by FaultBus::Raise to unwind a synchronous guest operation after
// the owning container has been killed. Engine entry points catch their
// own id and convert to kEKILLED / TouchResult::kKilled; a foreign id
// propagates (it means a bug in fault routing, not a guest fault).
class ContainerKilled : public std::runtime_error {
 public:
  explicit ContainerKilled(const FaultReport& report)
      : std::runtime_error(std::string("container killed: ") +
                           std::string(FaultKindName(report.kind))),
        report_(report) {}

  uint32_t owner() const { return report_.owner; }
  const FaultReport& report() const { return report_; }

 private:
  FaultReport report_;
};

// Machine-wide fault router. Engines register a fault domain per OwnerId;
// devices (VirtNic) add kill hooks that run before the engine teardown so
// ports detach before frames vanish. Not thread-safe (the simulator is
// single-threaded by design).
class FaultBus {
 public:
  explicit FaultBus(SimContext& ctx) : ctx_(ctx) {}

  // Registers the kill handler for `owner`. The handler must be
  // reentrancy-safe in the sense that it will be invoked at most once:
  // the bus marks the domain killed *before* calling it.
  void RegisterDomain(uint32_t owner, std::string name,
                      std::function<void()> on_kill);
  void UnregisterDomain(uint32_t owner);

  // Runs `fn` just before `owner`'s kill handler (device detach). Returns
  // a token for RemoveKillHook.
  uint64_t AddKillHook(uint32_t owner, std::function<void()> fn);
  void RemoveKillHook(uint64_t token);

  // False once `owner` has been killed; true for live or unregistered ids.
  bool alive(uint32_t owner) const;

  // Records a fault without killing anyone (advisory kinds: NIC overload,
  // host-side double-free accounting).
  void Note(const FaultReport& report);

  // Records the fault and kills the owning container in place; returns
  // normally. For asynchronous/device contexts where unwinding would rip
  // through an innocent caller's stack (e.g. the *sender* of a corrupt
  // virtio frame). Host-attributed or unregistered owners throw
  // FatalHostError: there is no container to contain the blast.
  void Kill(const FaultReport& report);

  // Kill + unwind: same as Kill, then throws ContainerKilled so the
  // faulting guest operation never "completes". For synchronous guest
  // contexts (syscall, touch, PTE update).
  [[noreturn]] void Raise(const FaultReport& report);

  // Teardown accounting, reported by FrameAllocator/engine destructors.
  void NoteReclaim(uint32_t owner, uint64_t frames);
  void NoteLeak(uint32_t owner, uint64_t frames);

  uint64_t faults_reported() const { return faults_reported_; }
  uint64_t containers_killed() const { return containers_killed_; }
  uint64_t frames_reclaimed() const { return frames_reclaimed_; }
  uint64_t frames_leaked() const { return frames_leaked_; }
  uint64_t CountForKind(FaultKind k) const {
    return kind_counts_[static_cast<size_t>(k)];
  }

  // FNV-1a digest over (kind, owner, detail) of every recorded fault, in
  // order. Same fault sequence => identical hash (vswitch.h contract).
  uint64_t trace_hash() const { return trace_hash_.value(); }

  // Emits fault/* counters (faults_reported, containers_killed,
  // frames_reclaimed, frames_leaked, kind/<name>).
  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  struct Domain {
    std::string name;
    std::function<void()> on_kill;
    bool killed = false;
  };
  struct Hook {
    uint64_t token = 0;
    uint32_t owner = 0;
    std::function<void()> fn;
  };

  void Record(const FaultReport& report);
  // Marks the domain killed and runs hooks + handler; returns false when
  // there is no live registered domain to kill (host-fatal for callers).
  bool KillOwner(const FaultReport& report);

  SimContext& ctx_;
  std::unordered_map<uint32_t, Domain> domains_;
  std::vector<Hook> hooks_;
  uint64_t next_hook_token_ = 1;
  uint64_t faults_reported_ = 0;
  uint64_t containers_killed_ = 0;
  uint64_t frames_reclaimed_ = 0;
  uint64_t frames_leaked_ = 0;
  std::array<uint64_t, static_cast<size_t>(FaultKind::kCount)> kind_counts_{};
  Digest trace_hash_;
};

}  // namespace cki

#endif  // SRC_FAULT_FAULT_DOMAIN_H_
