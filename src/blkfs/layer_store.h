// Host-side layered block store (DESIGN.md §15): content-addressed,
// copy-on-write block layers backing the virtio-blk path.
//
// An *image* is an immutable base layer — one content tag per 4 KiB device
// block — registered once per machine and deduplicated by content hash, so
// ten thousand containers booted from the same template reference a single
// image record. A *view* is one container's stack on top of an image: reads
// resolve through the container's private delta first (overlayfs-style),
// then fall through to the base; writes always land in the delta, never in
// the image.
//
// Base blocks materialize lazily into *host-owned* physical frames
// (kHostOwner, so container kills never reclaim them). Once a block is
// materialized, every subsequent reader maps the same host frame via a
// FrameAllocator share record instead of paying device I/O — the
// cross-container dedup that makes N containers from one template cost
// roughly one image plus their dirty blocks.
//
// Determinism: images and views live in std::vector / std::map with
// monotonic integer ids, so every sweep iterates in id order. No host PA
// ever feeds a trace hash (the blkfs hash contract folds tags, not PAs).
#ifndef SRC_BLKFS_LAYER_STORE_H_
#define SRC_BLKFS_LAYER_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/guest/engine_port.h"
#include "src/host/frame_allocator.h"

namespace cki {

class Machine;

// An immutable base layer: one content tag per device block.
struct BlkImage {
  std::vector<uint64_t> block_tags;
  // Host frame backing each block; kNoPage until first materialized.
  std::vector<uint64_t> frames;
  uint64_t content_hash = 0;  // FNV-1a over block_tags (dedup key)
  uint64_t materialized = 0;  // frames allocated so far
};

// Outcome of resolving one device block through a view's layer chain.
struct BlkResolution {
  uint64_t tag = 0;
  bool from_delta = false;
  // True when the block lies inside the image's base extent (whether or
  // not its frame is materialized yet).
  bool base_present = false;
  // Shared host frame of a materialized base block; kNoPage otherwise.
  uint64_t host_pa = kNoPage;
  // Layers walked: 1 = delta hit, 2 = fell through to the base.
  int chain_steps = 1;
};

class LayerStore {
 public:
  explicit LayerStore(Machine& machine) : machine_(machine) {}

  LayerStore(const LayerStore&) = delete;
  LayerStore& operator=(const LayerStore&) = delete;

  // Registers a base image; returns its id. An image with identical
  // content (same FNV-1a over the tags) dedups to the existing id — this
  // is what makes restore-on-another-machine re-attach instead of copy.
  int RegisterImage(std::vector<uint64_t> block_tags);

  // Opens a fresh (empty-delta) view of `image_id` for `owner`.
  int OpenView(int image_id, OwnerId owner);
  // CoW fork: the clone starts with a copy of the parent's delta.
  int CloneView(int view_id, OwnerId owner);
  void CloseView(int view_id);

  BlkResolution Resolve(int view_id, uint64_t block) const;

  // Host frame for a base block, allocating a host-owned frame on first
  // use. `fresh` (optional) reports whether this call materialized it —
  // a fresh frame still needs one device read to fill; a seasoned one is
  // a pure share grant.
  uint64_t MaterializeBase(int view_id, uint64_t block, bool* fresh = nullptr);

  // Records a block write in the view's private delta.
  void WriteDelta(int view_id, uint64_t block, uint64_t tag);

  const std::map<uint64_t, uint64_t>& delta(int view_id) const;
  int image_of(int view_id) const;
  const BlkImage& image(int image_id) const { return images_[static_cast<size_t>(image_id)]; }
  // Host frames currently backing `image_id` (the dedup audit: this is
  // the whole machine's cost for the base layer, however many views).
  uint64_t materialized_frames(int image_id) const {
    return images_[static_cast<size_t>(image_id)].materialized;
  }

 private:
  struct View {
    int image_id = -1;
    OwnerId owner = kHostOwner;
    std::map<uint64_t, uint64_t> delta;  // device block -> content tag
  };

  Machine& machine_;
  std::vector<BlkImage> images_;
  std::map<int, View> views_;  // id order == open order (deterministic)
  int next_view_ = 1;
};

}  // namespace cki

#endif  // SRC_BLKFS_LAYER_STORE_H_
