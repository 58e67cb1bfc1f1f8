// Rolling-window time series over simulated time: the always-on SLO view.
//
// A SloWindow is a ring of time buckets, each holding one HDR histogram of
// syscall latencies plus op/fault counters for one bucket-sized slice of
// simulated time. Writes touch exactly one bucket (O(1), no allocation
// after construction); queries fold the live buckets together, answering
// "p99 over the last W ms", "syscall rate", "faults in window" and the
// latest resident-frames gauge per container. Buckets expire by epoch:
// writing into a slot whose epoch moved on clears it first, so a window
// never reports samples older than `window_ns()`.
//
// Everything is keyed off the simulated clock — the window is as
// deterministic as the simulation feeding it, and identical at any host
// thread count.
//
// Thread-safety: none — owned by one Observability hub, touched only from
// that shard's thread (the hub's contract).
#ifndef SRC_OBS_SLO_WINDOW_H_
#define SRC_OBS_SLO_WINDOW_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "src/obs/histogram.h"
#include "src/sim/clock.h"

namespace cki {

class SloWindow {
 public:
  struct Config {
    SimNanos bucket_ns = 1'000'000;  // 1 simulated ms per bucket
    uint32_t buckets = 8;            // window = bucket_ns * buckets
  };

  SloWindow() { Init(); }
  explicit SloWindow(Config config) : config_(config) { Init(); }

  SimNanos window_ns() const { return config_.bucket_ns * config_.buckets; }

  void ObserveLatency(SimNanos now, SimNanos latency_ns) {
    Bucket& b = Touch(now);
    b.latency.Add(latency_ns);
    b.ops++;
    total_ops_++;
  }

  void IncFaults(SimNanos now, uint64_t n = 1) {
    Touch(now).faults += n;
    total_faults_ += n;
  }

  // RX-ring overrun backpressure events (kNicOverload promoted from
  // advisory-only): windowed like faults so shedding decisions and
  // dashboards see *current* backpressure, not lifetime totals.
  void IncOverloads(SimNanos now, uint64_t n = 1) {
    Touch(now).overloads += n;
  }

  // Latest point-in-time gauge (resident frames); last write wins.
  void SetGauge(SimNanos now, uint64_t value) {
    Touch(now);
    gauge_ = value;
  }

  uint64_t gauge() const { return gauge_; }
  uint64_t total_ops() const { return total_ops_; }
  uint64_t total_faults() const { return total_faults_; }
  // Simulated time of the most recent write (queries anchor here).
  SimNanos last_ns() const { return last_ns_; }

  // --- window queries, anchored at the most recent write ------------------

  uint64_t WindowOps() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.ops; });
    return n;
  }

  uint64_t WindowFaults() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.faults; });
    return n;
  }

  uint64_t WindowOverloads() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.overloads; });
    return n;
  }

  // Ops per simulated second over the window span.
  double OpsPerSec() const {
    double secs = static_cast<double>(window_ns()) * 1e-9;
    return secs > 0 ? static_cast<double>(WindowOps()) / secs : 0;
  }

  // Latency percentile over the live buckets (0 with no samples).
  uint64_t Percentile(double p) const {
    Histogram merged;
    ForLive([&](const Bucket& b) { merged.Merge(b.latency); });
    return merged.count() == 0 ? 0 : merged.Percentile(p);
  }

  // {"window_ns":..,"ops":..,"ops_per_sec":..,"p50":..,"p99":..,
  //  "faults":..,"overloads":..,"gauge":..}
  void WriteJson(std::ostream& os) const {
    Histogram merged;
    ForLive([&](const Bucket& b) { merged.Merge(b.latency); });
    os << "{\"window_ns\":" << window_ns() << ",\"ops\":" << WindowOps()
       << ",\"ops_per_sec\":" << OpsPerSec()
       << ",\"p50\":" << (merged.count() ? merged.Percentile(50) : 0)
       << ",\"p99\":" << (merged.count() ? merged.Percentile(99) : 0)
       << ",\"faults\":" << WindowFaults() << ",\"overloads\":" << WindowOverloads()
       << ",\"gauge\":" << gauge_ << "}";
  }

 private:
  struct Bucket {
    int64_t epoch = -1;  // now / bucket_ns when last written; -1: never
    Histogram latency;
    uint64_t ops = 0;
    uint64_t faults = 0;
    uint64_t overloads = 0;
  };

  void Init() {
    if (config_.bucket_ns < 1) {
      config_.bucket_ns = 1;
    }
    if (config_.buckets < 1) {
      config_.buckets = 1;
    }
    ring_.resize(config_.buckets);
  }

  Bucket& Touch(SimNanos now) {
    if (now > last_ns_) {
      last_ns_ = now;
    }
    int64_t epoch = static_cast<int64_t>(now / config_.bucket_ns);
    Bucket& b = ring_[static_cast<size_t>(epoch) % ring_.size()];
    if (b.epoch != epoch) {
      b.latency.Clear();
      b.ops = 0;
      b.faults = 0;
      b.overloads = 0;
      b.epoch = epoch;
    }
    return b;
  }

  // Applies `fn` to every bucket still inside the window ending at
  // last_ns_ (epochs within `buckets` of the anchor epoch).
  template <typename Fn>
  void ForLive(Fn&& fn) const {
    int64_t anchor = static_cast<int64_t>(last_ns_ / config_.bucket_ns);
    for (const Bucket& b : ring_) {
      if (b.epoch >= 0 && b.epoch > anchor - static_cast<int64_t>(ring_.size()) &&
          b.epoch <= anchor) {
        fn(b);
      }
    }
  }

  Config config_;
  std::vector<Bucket> ring_;
  SimNanos last_ns_ = 0;
  uint64_t gauge_ = 0;
  uint64_t total_ops_ = 0;
  uint64_t total_faults_ = 0;
};

}  // namespace cki

#endif  // SRC_OBS_SLO_WINDOW_H_
