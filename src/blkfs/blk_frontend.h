// Per-container block frontend: glues one container's layer-store view to
// its virtio-blk device (DESIGN.md §15).
//
// Reads resolve through the view's layer chain. Three outcomes per block:
//   * delta hit / unmaterialized base / fresh hole — a real device read,
//     batched through the virtio queue (doorbell + completion interrupt
//     amortized per queue-depth batch, as the device model prices it);
//   * materialized base — a *share grant*: the host hands the container a
//     reference to the already-resident image frame. No device I/O; the
//     batch pays one doorbell-priced grant hypercall plus the per-block
//     share-map cost.
// Writes always land in the view's private delta (and the device model's
// sector tags), submitted asynchronously; Barrier() is the fsync path.
//
// Chaos: blkfs_io_error_rate arms a per-device-read advisory fault —
// surfaced to the caller as an io_error outcome (-EIO at the syscall
// layer), noted on the fault bus, never a kill.
#ifndef SRC_BLKFS_BLK_FRONTEND_H_
#define SRC_BLKFS_BLK_FRONTEND_H_

#include <cstdint>
#include <vector>

#include "src/blkfs/layer_store.h"
#include "src/host/virtio_blk.h"
#include "src/runtime/engine.h"

namespace cki {

class FaultInjector;

// Device blocks are 4 KiB = 8 virtio sectors.
inline constexpr uint64_t kBlkSectorsPerBlock = 8;

// Outcome of one block read through the layer chain.
struct BlkReadOutcome {
  uint64_t block = 0;
  uint64_t tag = 0;
  // Shared host frame to adopt instead of filling a private page; kNoPage
  // when the read was served by device I/O (or errored).
  uint64_t shared_host_pa = kNoPage;
  bool from_delta = false;
  bool io_error = false;
};

class BlkFrontend {
 public:
  // Takes ownership of `view_id` (closed on destruction). The caller
  // opens the view — OpenView for a boot, CloneView for a CoW fork.
  BlkFrontend(ContainerEngine& engine, LayerStore& store, int view_id, int queue_depth = 8)
      : engine_(engine),
        ctx_(engine.machine().ctx()),
        store_(store),
        view_(view_id),
        device_(engine, queue_depth) {}
  ~BlkFrontend() { store_.CloseView(view_); }

  BlkFrontend(const BlkFrontend&) = delete;
  BlkFrontend& operator=(const BlkFrontend&) = delete;

  void set_injector(FaultInjector* injector) { injector_ = injector; }
  int view() const { return view_; }

  // Resolves and reads `n` device blocks as one batch: device reads go
  // through the virtio queue (completed before return), materialized base
  // blocks come back as share grants. Outcomes are in input order.
  std::vector<BlkReadOutcome> ReadBlocks(const uint64_t* blocks, size_t n);

  // Records a block write in the view's delta and submits the device
  // write (asynchronous; Drain()/Barrier() completes it).
  void WriteBlock(uint64_t block, uint64_t tag);

  // Completes all pending device requests (writeback batching).
  void Drain() { device_.Poll(); }
  // fsync barrier: completes everything, then a priced FLUSH round trip.
  void Barrier() { device_.Flush(); }

  const VirtioBlkStats& stats() const { return device_.stats(); }
  LayerStore& store() { return store_; }
  uint64_t grants() const { return grants_; }
  uint64_t io_errors() const { return io_errors_; }

 private:
  ContainerEngine& engine_;
  SimContext& ctx_;
  LayerStore& store_;
  int view_;
  VirtioBlkDevice device_;
  FaultInjector* injector_ = nullptr;
  uint64_t grants_ = 0;
  uint64_t io_errors_ = 0;
};

}  // namespace cki

#endif  // SRC_BLKFS_BLK_FRONTEND_H_
