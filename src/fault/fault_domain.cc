#include "src/fault/fault_domain.h"

#include <algorithm>

#include "src/obs/metrics_registry.h"
#include "src/sim/context.h"

namespace cki {

void FaultBus::RegisterDomain(uint32_t owner, std::string name,
                              std::function<void()> on_kill) {
  Domain& d = domains_[owner];
  d.name = std::move(name);
  d.on_kill = std::move(on_kill);
  d.killed = false;
}

void FaultBus::UnregisterDomain(uint32_t owner) { domains_.erase(owner); }

uint64_t FaultBus::AddKillHook(uint32_t owner, std::function<void()> fn) {
  uint64_t token = next_hook_token_++;
  hooks_.push_back(Hook{token, owner, std::move(fn)});
  return token;
}

void FaultBus::RemoveKillHook(uint64_t token) {
  hooks_.erase(std::remove_if(hooks_.begin(), hooks_.end(),
                              [token](const Hook& h) { return h.token == token; }),
               hooks_.end());
}

bool FaultBus::alive(uint32_t owner) const {
  auto it = domains_.find(owner);
  return it == domains_.end() || !it->second.killed;
}

void FaultBus::Record(const FaultReport& report) {
  faults_reported_++;
  kind_counts_[static_cast<size_t>(report.kind)]++;
  trace_hash_.Mix({static_cast<uint64_t>(report.kind), report.owner, report.detail});
  // Rolling per-container fault count for the SLO window (always-on
  // telemetry; no-op while observability is disabled).
  ctx_.obs().SloIncFault(report.owner, ctx_.clock().now());
}

bool FaultBus::KillOwner(const FaultReport& report) {
  auto it = domains_.find(report.owner);
  if (it == domains_.end() || it->second.killed) {
    return it != domains_.end();  // already killed counts as contained
  }
  // Mark killed before running anything: a handler that re-reports a fault
  // for the same owner must not recurse into a second kill.
  it->second.killed = true;
  containers_killed_++;
  ctx_.RecordEvent(PathEvent::kContainerKill, report.owner);
  // Device hooks first (NIC port detach) so no packet can be delivered
  // into a container whose frames are being reclaimed.
  for (size_t i = 0; i < hooks_.size(); ++i) {
    if (hooks_[i].owner == report.owner && hooks_[i].fn) {
      hooks_[i].fn();
    }
  }
  if (it->second.on_kill) {
    it->second.on_kill();
  }
  return true;
}

void FaultBus::Note(const FaultReport& report) { Record(report); }

void FaultBus::Kill(const FaultReport& report) {
  Record(report);
  if (!KillOwner(report)) {
    throw FatalHostError(std::string("host-fatal fault: ") +
                         std::string(FaultKindName(report.kind)) +
                         " attributed to unregistered owner " +
                         std::to_string(report.owner));
  }
}

void FaultBus::Raise(const FaultReport& report) {
  Kill(report);
  throw ContainerKilled(report);
}

void FaultBus::NoteReclaim(uint32_t owner, uint64_t frames) {
  (void)owner;
  frames_reclaimed_ += frames;
}

void FaultBus::NoteLeak(uint32_t owner, uint64_t frames) {
  (void)owner;
  frames_leaked_ += frames;
}

void FaultBus::ExportMetrics(MetricsRegistry& metrics) const {
  metrics.Inc("fault/faults_reported", faults_reported_);
  metrics.Inc("fault/containers_killed", containers_killed_);
  metrics.Inc("fault/frames_reclaimed", frames_reclaimed_);
  metrics.Inc("fault/frames_leaked", frames_leaked_);
  for (size_t i = 0; i < kind_counts_.size(); ++i) {
    if (kind_counts_[i] > 0) {
      metrics.Inc(std::string("fault/kind/") + std::string(kFaultKindNames[i]),
                  kind_counts_[i]);
    }
  }
}

}  // namespace cki
