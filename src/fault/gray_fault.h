// Gray failures: the degraded-but-alive machine (DESIGN.md section 13).
//
// Crash chaos (FaultInjector sites 8/9) models the easy failure mode — a
// machine or container that is simply gone. The failure mode that actually
// dominates production tail latency is grayness: a machine that still
// answers, just 3x slower, or a link that silently drops a third of its
// frames for a few milliseconds. A GrayFault holds that state for one
// machine: four independent episode sites (latency inflation, throughput
// throttling, intermittent packet blackhole, slow-syscall jitter), each
// opened by a FaultInjector draw once per control epoch and lasting
// `episode_ns` of simulated time.
//
// Determinism contract (the fault_injector.h contract extended to
// degradation): episode starts come from the injector's xorshift64*
// stream, and the per-packet / per-request draws inside an episode come
// from this object's own seeded stream — consumed only while an episode is
// open, in shard-serial order. The whole gray schedule, including every
// individual blackholed packet and jitter stall, is therefore a pure
// function of (injector seed, gray seed, query sequence), bit-identical
// at any thread count, and folded into trace_hash() for replay checks.
//
// Thread-safety: none — one GrayFault belongs to one machine/shard and is
// only queried from that shard's thread (the FaultInjector contract).
#ifndef SRC_FAULT_GRAY_FAULT_H_
#define SRC_FAULT_GRAY_FAULT_H_

#include <cstdint>

#include "src/fault/fault_domain.h"
#include "src/sim/clock.h"
#include "src/sim/fnv.h"
#include "src/sim/seed_split.h"

namespace cki {

class FaultInjector;

// Episode magnitudes. Rates live in InjectorConfig (sites 10-13); this
// struct says how bad an episode is once it starts, not how often.
struct GrayConfig {
  uint64_t seed = 1;                   // per-packet/per-request draw stream
  SimNanos episode_ns = 4'000'000;     // how long one episode lasts
  uint32_t latency_mult_x1000 = 3000;  // 3x service-time inflation
  uint32_t throttle_div = 4;           // serialization rate divided by this
  uint32_t blackhole_permille = 300;   // per-packet drop prob in an episode
  SimNanos jitter_max_ns = 150'000;    // worst extra slow-syscall stall
};

// Per-machine gray-failure state: which episodes are open and until when.
class GrayFault {
 public:
  explicit GrayFault(const GrayConfig& config) : config_(config), rng_(config.seed) {}

  const GrayConfig& config() const { return config_; }

  // One control-epoch advance at simulated time `now`: one injector draw
  // per armed site (sites 10-13); a hit opens (or extends) that site's
  // episode to now + episode_ns. Episode starts are Note()d to `bus` as
  // advisory FaultReports (host-attributed: the machine, not a container,
  // is gray) when a bus is provided — pass nullptr while the machine is
  // dark so the episode schedule stays a pure function of the seeds.
  void Advance(SimNanos now, FaultInjector& injector, FaultBus* bus);

  // --- episode queries (pure against the open episodes) -------------------

  // Multiplier (x1000) applied to service/hop latency; 1000 when healthy.
  uint32_t LatencyMultX1000(SimNanos now) const {
    return now < latency_until_ ? config_.latency_mult_x1000 : 1000;
  }
  // Divisor applied to link serialization rate; 1 when healthy.
  uint32_t ThrottleDiv(SimNanos now) const {
    return now < throttle_until_ && config_.throttle_div > 0 ? config_.throttle_div : 1;
  }
  bool LatencyInflated(SimNanos now) const { return now < latency_until_; }
  bool Throttled(SimNanos now) const { return now < throttle_until_; }
  bool BlackholeOpen(SimNanos now) const { return now < blackhole_until_; }
  bool JitterOpen(SimNanos now) const { return now < jitter_until_; }
  bool AnyOpen(SimNanos now) const {
    return LatencyInflated(now) || Throttled(now) || BlackholeOpen(now) || JitterOpen(now);
  }

  // --- per-event draws (consume from the gray stream only in-episode) ------

  // True when the packet offered at `now` vanishes into the blackhole.
  bool SwallowPacket(SimNanos now) {
    if (!BlackholeOpen(now)) {
      return false;
    }
    bool dropped = rng_.Next() % 1000 < config_.blackhole_permille;
    if (dropped) {
      swallowed_++;
      trace_hash_.Mix({0xB1AC, swallowed_});
    }
    return dropped;
  }

  // Extra stall charged to the request served at `now`; 0 when healthy.
  SimNanos JitterNs(SimNanos now) {
    if (!JitterOpen(now) || config_.jitter_max_ns == 0) {
      return 0;
    }
    SimNanos j = static_cast<SimNanos>(rng_.Next() % static_cast<uint64_t>(config_.jitter_max_ns));
    trace_hash_.Mix({0x717E, j});
    return j;
  }

  // Inflates a base service duration with the latency episode multiplier
  // plus one jitter draw — the one-stop gray tax for a request at `now`.
  SimNanos DegradeServiceNs(SimNanos base_ns, SimNanos now) {
    SimNanos out = base_ns * LatencyMultX1000(now) / 1000;
    return out + JitterNs(now);
  }

  uint64_t episodes() const { return episodes_; }
  uint64_t swallowed() const { return swallowed_; }
  // FNV-1a digest over every episode start and in-episode draw, in order.
  // Same seeds + same query sequence => identical hash.
  uint64_t trace_hash() const { return trace_hash_.value(); }

 private:
  void Open(SimNanos now, SimNanos* until, FaultKind kind, FaultBus* bus);

  GrayConfig config_;
  XorShift64Star rng_;
  SimNanos latency_until_ = 0;
  SimNanos throttle_until_ = 0;
  SimNanos blackhole_until_ = 0;
  SimNanos jitter_until_ = 0;
  uint64_t episodes_ = 0;
  uint64_t swallowed_ = 0;
  Digest trace_hash_;
};

}  // namespace cki

#endif  // SRC_FAULT_GRAY_FAULT_H_
