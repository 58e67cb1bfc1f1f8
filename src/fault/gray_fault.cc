#include "src/fault/gray_fault.h"

#include "src/fault/fault_injector.h"

namespace cki {

void GrayFault::Advance(SimNanos now, FaultInjector& injector, FaultBus* bus) {
  // Fixed site order (10..13) so the injector stream is consumed
  // identically on every machine every epoch.
  if (injector.InjectLatencyInflation()) {
    Open(now, &latency_until_, FaultKind::kLatencyInflation, bus);
  }
  if (injector.InjectThroughputThrottle()) {
    Open(now, &throttle_until_, FaultKind::kThroughputThrottle, bus);
  }
  if (injector.InjectPacketBlackhole()) {
    Open(now, &blackhole_until_, FaultKind::kPacketBlackhole, bus);
  }
  if (injector.InjectSyscallJitter()) {
    Open(now, &jitter_until_, FaultKind::kSyscallJitter, bus);
  }
}

void GrayFault::Open(SimNanos now, SimNanos* until, FaultKind kind, FaultBus* bus) {
  *until = now + config_.episode_ns;
  episodes_++;
  trace_hash_.Mix({static_cast<uint64_t>(kind), now});
  if (bus != nullptr) {
    // Advisory only: the machine is degraded, not dead — nothing to kill.
    bus->Note({kind, /*owner=*/0, /*detail=*/static_cast<uint64_t>(now)});
  }
}

}  // namespace cki
