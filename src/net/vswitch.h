// The host virtual switch: the point-to-point virtio link generalized to a
// cluster fabric. Devices (container NICs, load generators) attach to
// numbered ports; forwarding a frame charges a configurable per-hop latency
// plus serialization time, and frames a destination cannot take immediately
// wait in that port's bounded egress FIFO (overflow is a counted drop).
//
// The switch is engine-neutral on purpose: hop costs are identical for every
// container design, so throughput differences between engines come only from
// the kick/interrupt/syscall costs their NICs charge — the same separation
// the paper's I/O evaluation relies on.
//
// Determinism: forwarding order is the call order of the (single-clocked)
// simulation, and `trace_hash()` chains every forwarded frame into one
// FNV-1a digest, so two runs with the same seed must produce bit-identical
// packet traces (tests/net_test.cc asserts this).
#ifndef SRC_NET_VSWITCH_H_
#define SRC_NET_VSWITCH_H_

#include <deque>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/context.h"
#include "src/sim/fnv.h"

namespace cki {

class FaultInjector;
class GrayFault;

// A device attached to one switch port (a VirtNic or a load generator).
class NetDevice {
 public:
  virtual ~NetDevice() = default;
  // Hands the device one frame. Returning false means the device cannot
  // take it now (RX ring full); the switch then queues or drops the frame.
  virtual bool DeliverFrame(const Packet& p) = 0;
};

struct LinkConfig {
  SimNanos hop_latency = 250;        // store-and-forward latency per frame
  uint64_t bytes_per_ns = 12;        // serialization rate (~100 Gb/s); 0 = infinite
  size_t port_queue_capacity = 256;  // frames buffered toward a busy port
};

struct SwitchPortStats {
  uint64_t tx_packets = 0;  // frames sent from this port
  uint64_t tx_bytes = 0;
  uint64_t rx_packets = 0;  // frames delivered into this port's device
  uint64_t rx_bytes = 0;
  uint64_t queued = 0;      // frames that had to wait in the egress FIFO
  uint64_t drops = 0;       // frames lost to FIFO overflow
};

class VSwitch {
 public:
  explicit VSwitch(SimContext& ctx, LinkConfig link = LinkConfig{}) : ctx_(ctx), link_(link) {}

  VSwitch(const VSwitch&) = delete;
  VSwitch& operator=(const VSwitch&) = delete;

  // Attaches `dev` and returns its port number (also its network address).
  int AttachPort(NetDevice& dev, std::string name);

  // Detaches the device behind `port` (its container was killed): queued
  // frames are counted as drops, and future frames toward the port
  // black-hole instead of reaching a dead device.
  void DetachPort(int port);

  // Arms deterministic packet drop/duplication (chaos testing).
  void set_injector(FaultInjector* injector) { injector_ = injector; }

  // Arms gray degradation (src/fault/gray_fault.h): while episodes are
  // open, hop latency is inflated, serialization rate is divided, and
  // frames are intermittently swallowed by the blackhole.
  void set_gray(GrayFault* gray) { gray_ = gray; }

  // Forwards `p` from p.src to p.dst, charging the hop. Returns false only
  // when the frame was dropped (destination busy and its FIFO full).
  bool Send(const Packet& p);

  // Re-offers queued frames to `port`'s device; NICs call this after the
  // guest drains ring space.
  void DrainPort(int port);

  // Hands out switch-global connection (flow) ids.
  int AllocFlow() { return next_flow_++; }

  size_t ports() const { return ports_.size(); }
  const SwitchPortStats& port_stats(int port) const {
    return ports_.at(static_cast<size_t>(port)).stats;
  }
  size_t port_queue_depth(int port) const {
    return ports_.at(static_cast<size_t>(port)).queue.size();
  }
  const LinkConfig& link() const { return link_; }

  uint64_t packets_forwarded() const { return forwarded_; }
  uint64_t injected_drops() const { return injected_drops_; }
  uint64_t injected_dups() const { return injected_dups_; }
  uint64_t gray_drops() const { return gray_drops_; }
  // Order-sensitive FNV-1a digest over every forwarded frame.
  uint64_t trace_hash() const { return trace_hash_.value(); }

  // Dumps per-port counters as `net/<port-name>/<counter>` plus
  // `net/switch/packets` (what --json-out benchmark runs export).
  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  struct PortState {
    NetDevice* dev = nullptr;
    std::string name;
    std::deque<Packet> queue;  // egress FIFO toward this port
    SwitchPortStats stats;
  };

  void Absorb(const Packet& p);  // hash + forwarded bookkeeping
  // Deliver-or-queue toward `dst`; false only when the frame was dropped.
  bool Offer(PortState& dst, const Packet& p);

  SimContext& ctx_;
  LinkConfig link_;
  std::vector<PortState> ports_;
  FaultInjector* injector_ = nullptr;
  GrayFault* gray_ = nullptr;
  int next_flow_ = 1;
  uint64_t forwarded_ = 0;
  uint64_t injected_drops_ = 0;
  uint64_t injected_dups_ = 0;
  uint64_t gray_drops_ = 0;
  Digest trace_hash_;
};

}  // namespace cki

#endif  // SRC_NET_VSWITCH_H_
