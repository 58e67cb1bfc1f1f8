// Tests for the virtio-net device model: queue semantics, TX batching,
// NAPI interrupt coalescing, and per-design cost ordering. Each case wires
// a client port and one container NIC to a switch over a raw
// (handshake-free) flow and drives frames through the real packet path.
#include <gtest/gtest.h>

#include "src/net/load_gen.h"
#include "src/net/virt_nic.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

constexpr int kFlow = 1;

// A RunC container's NIC and a load-generator port on one switch.
struct Link {
  explicit Link(int tx_batch)
      : bed(RuntimeKind::kRunc, Deployment::kBareMetal),
        sw(bed.ctx()),
        gen(bed.ctx(), sw, "client"),
        nic(bed.engine(), sw, "eth0", NicConfig{.tx_batch = tx_batch}) {
    nic.OpenRawFlow(kFlow, gen.port());
  }

  // Client to guest: `count` request frames of `bytes` each.
  void Submit(int count, uint64_t bytes) {
    for (int i = 0; i < count; ++i) {
      sw.Send(Packet{.src = gen.port(), .dst = nic.port(), .flow = kFlow, .bytes = bytes});
    }
  }
  // Frames the guest's responses delivered to the client port so far.
  uint64_t ClientFrames() const { return sw.port_stats(gen.port()).rx_packets; }

  Testbed bed;
  VSwitch sw;
  LoadGenerator gen;
  VirtNic nic;
};

TEST(VirtioTest, RequestsFlowClientToGuestAndBack) {
  Link link(/*tx_batch=*/1);
  link.Submit(3, 500);
  EXPECT_TRUE(link.nic.HasPending());
  EXPECT_EQ(link.nic.Receive(kFlow, 500), 500u);
  EXPECT_EQ(link.nic.Receive(kFlow, 500), 500u);
  EXPECT_EQ(link.nic.Transmit(kFlow, 500), 500u);
  EXPECT_EQ(link.nic.Transmit(kFlow, 500), 500u);
  EXPECT_EQ(link.ClientFrames(), 2u);
  EXPECT_EQ(link.nic.Receive(kFlow, 500), 500u);
  EXPECT_FALSE(link.nic.HasPending());
  EXPECT_EQ(link.nic.Receive(kFlow, 500), 0u);
}

TEST(VirtioTest, BurstRaisesOneInterruptUntilTheGuestDrains) {
  Link link(/*tx_batch=*/1);
  link.Submit(8, 100);
  EXPECT_EQ(link.nic.stats().interrupts, 1u);
  EXPECT_EQ(link.nic.stats().coalesced_frames, 7u);
  // Draining the ring acknowledges the interrupt and re-arms the device...
  while (link.nic.Receive(kFlow, 100) > 0) {
  }
  EXPECT_EQ(link.nic.stats().irq_acks, 1u);
  // ... so the next burst raises the second one.
  link.Submit(8, 100);
  EXPECT_EQ(link.nic.stats().interrupts, 2u);
  EXPECT_EQ(link.nic.stats().coalesced_frames, 14u);
  EXPECT_EQ(link.nic.stats().rx_packets, 16u);
}

TEST(VirtioTest, TxBatchingAmortizesKicks) {
  Link link(/*tx_batch=*/4);
  for (int i = 0; i < 8; ++i) {
    link.nic.Transmit(kFlow, 100);
  }
  EXPECT_EQ(link.nic.stats().kicks, 2u);
  EXPECT_EQ(link.ClientFrames(), 8u);
}

TEST(VirtioTest, ReceiveTruncatesToBuffer) {
  Link link(/*tx_batch=*/1);
  link.Submit(1, 1000);
  EXPECT_EQ(link.nic.Receive(kFlow, 400), 400u);
}

TEST(VirtioTest, FlushDeliversTailBelowBatch) {
  Link link(/*tx_batch=*/4);
  for (int i = 0; i < 3; ++i) {
    link.nic.Transmit(kFlow, 100);
  }
  // Below the batch threshold: nothing reached the wire yet.
  EXPECT_EQ(link.nic.stats().kicks, 0u);
  EXPECT_EQ(link.ClientFrames(), 0u);
  link.nic.Flush();
  EXPECT_EQ(link.nic.stats().kicks, 1u);
  EXPECT_EQ(link.ClientFrames(), 3u);
}

TEST(VirtioTest, LoweringTxBatchFlushesStrandedFrames) {
  Link link(/*tx_batch=*/8);
  for (int i = 0; i < 5; ++i) {
    link.nic.Transmit(kFlow, 100);
  }
  EXPECT_EQ(link.nic.stats().kicks, 0u);
  // Lowering the threshold below the buffered count must kick immediately
  // instead of stranding the frames behind the new, already-passed mark.
  link.nic.set_tx_batch(2);
  EXPECT_EQ(link.nic.stats().kicks, 1u);
  EXPECT_EQ(link.ClientFrames(), 5u);
}

TEST(VirtioTest, KickCostOrderingMatchesDesigns) {
  // CKI's hypercall kick < PVM's host round trip < HVM-BM's VM exit <<
  // HVM-NST's L0-mediated exit.
  Testbed cki_bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Testbed pvm_bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  Testbed hvm_bm(RuntimeKind::kHvm, Deployment::kBareMetal);
  Testbed hvm_nst(RuntimeKind::kHvm, Deployment::kNested);
  EXPECT_LT(cki_bed.engine().KickCost(), pvm_bed.engine().KickCost());
  EXPECT_LT(pvm_bed.engine().KickCost(), hvm_bm.engine().KickCost());
  EXPECT_LT(hvm_bm.engine().KickCost(), hvm_nst.engine().KickCost() / 4);
}

TEST(VirtioTest, CkiKickCostIsIndependentOfNesting) {
  Testbed bm(RuntimeKind::kCki, Deployment::kBareMetal);
  Testbed nst(RuntimeKind::kCki, Deployment::kNested);
  EXPECT_EQ(bm.engine().KickCost(), nst.engine().KickCost());
  EXPECT_EQ(bm.engine().DeviceInterruptCost(), nst.engine().DeviceInterruptCost());
}

TEST(VirtioTest, RuncHasNoVirtualizationTax) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  EXPECT_EQ(bed.engine().KickCost(), 0u);
  EXPECT_EQ(bed.engine().VirtioEmulationExtra(), 0u);
}

}  // namespace
}  // namespace cki
