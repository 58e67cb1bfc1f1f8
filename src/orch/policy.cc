#include "src/orch/policy.h"

#include <algorithm>

#include "src/sim/fnv.h"

namespace cki {

uint64_t ClusterSnapshot::Hash() const {
  Digest h;
  h.Mix({epoch, epoch_ns, slo_p99_ns});
  for (const ShardSignal& s : shards) {
    h.Mix({s.index, s.up ? 1u : 0u, s.has_template ? 1u : 0u, s.backlog_ns, s.epoch_requests,
           s.epoch_lost, s.epoch_p99_ns, s.health_x1000});
    for (const ContainerSignal& c : s.containers) {
      h.Mix({c.id, c.alive ? 1u : 0u, c.p99_ns, c.window_ops, c.resident_frames, c.faults,
             c.idle_epochs});
    }
  }
  return h.value();
}

namespace {

uint32_t AliveCount(const ShardSignal& s) {
  uint32_t n = 0;
  for (const ContainerSignal& c : s.containers) {
    n += c.alive ? 1 : 0;
  }
  return n;
}

// Destination for a migration: the least-backlogged up shard with room,
// excluding `src` and (when a gray threshold is set) gray shards — moving
// work onto a degraded machine would re-create the problem elsewhere.
// Ties break toward the lower shard index, so the choice is a pure
// function of the snapshot. Returns false when no shard fits.
bool PickDestination(const ClusterSnapshot& snap, uint32_t src, uint32_t max_containers,
                     uint32_t gray_health_x1000, uint32_t* dst) {
  bool found = false;
  SimNanos best_backlog = 0;
  uint64_t best_ops = 0;
  for (const ShardSignal& s : snap.shards) {
    if (s.index == src || !s.up || AliveCount(s) >= max_containers ||
        (gray_health_x1000 > 0 && s.health_x1000 < gray_health_x1000)) {
      continue;
    }
    uint64_t ops = s.epoch_requests;
    if (!found || s.backlog_ns < best_backlog ||
        (s.backlog_ns == best_backlog && ops < best_ops)) {
      found = true;
      best_backlog = s.backlog_ns;
      best_ops = ops;
      *dst = s.index;
    }
  }
  return found;
}

}  // namespace

std::vector<OrchAction> StaticPolicy::Decide(const ClusterSnapshot& snap) const {
  std::vector<OrchAction> actions;
  for (const ShardSignal& s : snap.shards) {
    if (!s.up) {
      continue;
    }
    for (uint32_t i = AliveCount(s); i < target_; ++i) {
      actions.push_back(OrchAction{OrchActionKind::kScaleUp, s.index, 0, 0});
    }
  }
  return actions;
}

std::vector<OrchAction> ReactivePolicy::Decide(const ClusterSnapshot& snap) const {
  std::vector<OrchAction> actions;
  for (const ShardSignal& s : snap.shards) {
    if (!s.up) {
      continue;
    }
    const uint32_t alive = AliveCount(s);
    // Gray: alive but probing far slower than its healthy self. Drain
    // containers toward healthy shards instead of feeding it more work.
    const bool gray =
        config_.gray_health_x1000 > 0 && s.health_x1000 < config_.gray_health_x1000;
    if (gray) {
      // Never drain below the shard minimum: arrivals are shard-local, so
      // an emptied gray machine would lose its whole traffic share — the
      // remaining containers serve slowly, which still beats not at all.
      uint32_t can_drain =
          alive > config_.min_containers ? alive - config_.min_containers : 0;
      if (can_drain > config_.drain_per_epoch) {
        can_drain = config_.drain_per_epoch;
      }
      uint32_t drained = 0;
      for (const ContainerSignal& c : s.containers) {
        if (drained >= can_drain) {
          break;
        }
        uint32_t dst = 0;
        if (!c.alive ||
            !PickDestination(snap, s.index, config_.max_containers,
                             config_.gray_health_x1000, &dst)) {
          continue;
        }
        actions.push_back(OrchAction{OrchActionKind::kDrain, s.index, c.id, dst});
        drained++;
      }
      // No scale-up, no reap, no hot handling on a gray shard: shrink it
      // and let the health probe decide when it has earned traffic back.
      continue;
    }
    const SimNanos hot_backlog =
        snap.epoch_ns * config_.hot_backlog_permille / 1000;
    const bool hot = s.epoch_p99_ns > snap.slo_p99_ns || s.backlog_ns > hot_backlog;
    // Saturation by rolling rate: capacity is per serving container.
    double rate = 0;
    for (const ContainerSignal& c : s.containers) {
      rate += c.alive ? c.ops_per_sec : 0;
    }
    const bool saturated =
        alive > 0 && rate > config_.capacity_ops_per_sec * static_cast<double>(alive);

    // Reaps first (container-ordered): quiet shards shed idle capacity.
    uint32_t reapable = alive > config_.min_containers ? alive - config_.min_containers : 0;
    if (!hot && !saturated) {
      for (const ContainerSignal& c : s.containers) {
        if (reapable == 0) {
          break;
        }
        if (c.alive && c.idle_epochs >= config_.reap_idle_epochs) {
          actions.push_back(OrchAction{OrchActionKind::kReap, s.index, c.id, 0});
          reapable--;
        }
      }
    }

    // Replacement + scale-up: dead or under-min shards are refilled; hot
    // or saturated shards grow by one container per epoch.
    uint32_t want = std::max(alive, config_.min_containers);
    if ((hot || saturated) && want < config_.max_containers) {
      want++;
    }
    for (uint32_t i = alive; i < want; ++i) {
      actions.push_back(OrchAction{OrchActionKind::kScaleUp, s.index, 0, 0});
    }

    // A shard already at max that is still hot moves its busiest
    // container to the least-loaded shard with room.
    if ((hot || saturated) && alive >= config_.max_containers) {
      uint32_t dst = 0;
      if (PickDestination(snap, s.index, config_.max_containers, config_.gray_health_x1000,
                          &dst)) {
        const ContainerSignal* busiest = nullptr;
        for (const ContainerSignal& c : s.containers) {
          if (c.alive && (busiest == nullptr || c.window_ops > busiest->window_ops)) {
            busiest = &c;
          }
        }
        if (busiest != nullptr) {
          actions.push_back(
              OrchAction{OrchActionKind::kMigrate, s.index, busiest->id, dst});
        }
      }
    }
  }
  return actions;
}

}  // namespace cki
