#include "src/cluster/sim_cluster.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "src/sim/seed_split.h"

namespace cki {

size_t ClusterResult::failed_count() const {
  size_t n = 0;
  for (const ShardResult& s : shards_) {
    n += s.ok ? 0 : 1;
  }
  return n;
}

SimNanos ClusterResult::TotalSimNs() const {
  SimNanos total = 0;
  for (const ShardResult& s : shards_) {
    total += s.sim_ns;
  }
  return total;
}

double ClusterResult::SumValue(const std::string& name) const {
  double sum = 0;
  for (const ShardResult& s : shards_) {
    if (!s.ok) {
      continue;
    }
    auto it = s.values.find(name);
    if (it != s.values.end()) {
      sum += it->second;
    }
  }
  return sum;
}

MetricsRegistry ClusterResult::MergedMetrics() const {
  MetricsRegistry merged;
  for (const ShardResult& s : shards_) {
    if (s.ok) {
      merged.Merge(s.metrics);
    }
  }
  return merged;
}

uint64_t ClusterResult::trace_hash() const {
  Digest hash;
  for (const ShardResult& s : shards_) {
    hash.Mix({s.index, s.ok ? 1u : 0u, s.sim_ns, s.trace_hash()});
  }
  return hash.value();
}

SimCluster::SimCluster(const ClusterConfig& config) : config_(config) {
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  config_.threads = std::clamp(config_.threads, 1u, config_.shards);
}

uint64_t SimCluster::ShardSeed(uint64_t root_seed, uint32_t shard_index) {
  // The shared fold+split scheme (src/sim/seed_split.h): FaultInjector
  // streams and shard seeds derive from the exact same bits.
  return SplitSeed(root_seed, shard_index);
}

ClusterResult SimCluster::Run(const ShardBody& body) const {
  const uint32_t n = config_.shards;
  // One pre-sized slot per shard: each is written by exactly one worker
  // and read only after every worker joined, so no lock is needed.
  std::vector<ShardResult> slots(n);
  std::atomic<uint32_t> next{0};

  auto worker = [&]() {
    for (;;) {
      uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      ShardTask task{i, n, ShardSeed(config_.root_seed, i)};
      ShardResult result;
      try {
        result = body(task);
      } catch (const std::exception& e) {
        result = ShardResult{};
        result.ok = false;
        result.error = e.what();
      } catch (...) {
        result = ShardResult{};
        result.ok = false;
        result.error = "unknown exception";
      }
      result.index = i;  // the slot is authoritative even if the body forgot
      // Obs self-accounting rides the shard's metrics (obs/self/*), so the
      // merged cluster report states what observing the fleet cost.
      // Shard-local and deterministic: merged counters stay bit-identical
      // at any thread count.
      if (result.obs.has_data()) {
        result.obs.ExportSelfMetrics(result.metrics);
        result.obs.ExportSloMetrics(result.metrics);
      }
      slots[i] = std::move(result);
    }
  };

  const uint32_t workers = std::min(config_.threads, n);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return ClusterResult(std::move(slots));
}

}  // namespace cki
