// Block-backed filesystem with a real page cache for the model guest
// kernel (DESIGN.md §15). This is the guest half of src/blkfs: it
// implements the kernel's BlkfsPort — read/write/fsync plus the mmap
// cooperation hooks — on top of a per-container BlkFrontend (layer-chain
// resolution + virtio-blk) and the kernel's own file_pages_ registry.
//
// Cache structure: a fanout-64 radix tree over (inode, block) keys whose
// leaves own the page metadata, plus an LRU list for eviction. The
// kernel's file_pages_ map is the single source of truth for the backing
// physical pages (the cache pins them via PinFilePage), so snapshot,
// restore and CoW clone carry cache pages with no blkfs-specific frame
// bookkeeping — after either, RebuildCacheFromKernel re-derives the radix
// from the kernel map.
//
// Dirty tracking is epoch-based: writes dirty pages in place and every
// `writeback_epoch`-th dirty event triggers a batched asynchronous
// writeback (no barrier). fsync() writes back the inode's dirty pages and
// then forces the device FLUSH barrier — the exact path the WAL benchmark
// prices. O_DIRECT bypasses the cache entirely in both directions.
//
// Determinism contract: every cache event folds (op, ino, block, tag)
// into an FNV-1a trace hash — never a physical address — so the hash is
// bit-identical across thread counts and across engines that renumber
// frames (DESIGN.md §14).
#ifndef SRC_BLKFS_BLKFS_H_
#define SRC_BLKFS_BLKFS_H_

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "src/blkfs/blk_frontend.h"
#include "src/blkfs/blkfs_ops.h"
#include "src/guest/guest_kernel.h"
#include "src/runtime/engine.h"
#include "src/sim/fnv.h"

namespace cki {

class MetricsRegistry;
class SnapReader;
class SnapWriter;

struct BlkfsConfig {
  uint64_t cache_pages = 256;     // eviction target (pinned pages may exceed)
  uint64_t readahead_window = 8;  // blocks prefetched on a sequential miss
  uint64_t writeback_epoch = 64;  // dirty events per async writeback batch
  int queue_depth = 8;            // virtio queue depth of the frontend
};

// One file of a template image: `blocks` base blocks whose content tags
// derive from `tag_seed`.
struct BlkfsFileSpec {
  uint64_t name = 0;
  uint64_t blocks = 0;
  uint64_t tag_seed = 0;
};

struct BlkfsImageSpec {
  std::vector<BlkfsFileSpec> files;
};

// Content tag of base block `index` of a file seeded with `seed`.
constexpr uint64_t BlkfsImageTag(uint64_t seed, uint64_t index) {
  return Digest().Mix({seed, index}).value();
}

// Registers the template image described by `spec` (files laid out
// sequentially from device block 0) and returns its image id. Dedups:
// building the same spec twice returns the same id.
int BuildBlkfsImage(LayerStore& store, const BlkfsImageSpec& spec);

// Cached-page metadata (radix leaf). The backing frame is pinned in the
// kernel's file_pages_ map; `pa` mirrors that entry.
struct BlkfsPage {
  int ino = -1;
  uint64_t block = 0;
  uint64_t pa = kNoPage;
  bool dirty = false;
  uint64_t pending_tag = 0;  // content tag the next writeback will persist
  std::list<uint64_t>::iterator lru;
};

// Fanout-64 radix tree over (ino, block) keys, leaves owning BlkfsPage.
// Height grows on demand; traversal visits keys in ascending order by
// construction (the determinism property a hash map could not give).
class BlkfsPageRadix {
 public:
  BlkfsPageRadix() : root_(new Node) {}
  ~BlkfsPageRadix() { FreeNode(root_, height_); }

  BlkfsPageRadix(const BlkfsPageRadix&) = delete;
  BlkfsPageRadix& operator=(const BlkfsPageRadix&) = delete;

  BlkfsPage* Find(uint64_t key) const;
  // Returns the leaf for `key`, creating it (value-initialized) on miss.
  BlkfsPage* Insert(uint64_t key);
  // Deletes the leaf and prunes emptied interior nodes.
  void Erase(uint64_t key);
  size_t size() const { return size_; }

  // Visits every leaf in ascending key order.
  template <typename F>
  void ForEach(F f) const {
    Walk(root_, height_, f);
  }

 private:
  static constexpr int kShift = 6;
  static constexpr int kFanout = 1 << kShift;
  struct Node {
    std::array<void*, kFanout> slots{};
    int count = 0;  // occupied slots (prune signal)
  };

  // True while `key` needs more levels than the tree currently has.
  bool Overflows(uint64_t key) const {
    return height_ * kShift < 64 && (key >> (height_ * kShift)) != 0;
  }
  bool EraseRec(Node* n, int height, uint64_t key);
  static void FreeNode(Node* n, int height);

  template <typename F>
  static void Walk(const Node* n, int height, F& f) {
    for (int i = 0; i < kFanout; ++i) {
      void* child = n->slots[static_cast<size_t>(i)];
      if (child == nullptr) {
        continue;
      }
      if (height == 1) {
        f(*static_cast<BlkfsPage*>(child));
      } else {
        Walk(static_cast<const Node*>(child), height - 1, f);
      }
    }
  }

  Node* root_;
  int height_ = 1;
  size_t size_ = 0;
};

struct BlkfsCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t readahead = 0;
  uint64_t writebacks = 0;
  uint64_t evictions = 0;
  uint64_t fsyncs = 0;
  uint64_t direct_reads = 0;
  uint64_t direct_writes = 0;
  uint64_t base_shares = 0;
  uint64_t cow_breaks = 0;
};

// The per-container filesystem. Construct after engine.Boot() (it
// registers itself as the kernel's BlkfsPort); destroy before the engine.
class Blkfs final : public BlkfsPort {
 public:
  // Boots on `image_id` with the matching layout `spec` (the same spec
  // that built the image — files are addressed by their spec names).
  Blkfs(ContainerEngine& engine, LayerStore& store, int image_id, const BlkfsImageSpec& spec,
        const BlkfsConfig& cfg = {});
  ~Blkfs() override;

  Blkfs(const Blkfs&) = delete;
  Blkfs& operator=(const Blkfs&) = delete;

  // --- BlkfsPort (the kernel's storage seam) ------------------------------
  int64_t Open(uint64_t name_arg) override;
  int64_t FileSize(int ino) const override;
  int64_t Read(int ino, uint64_t offset, uint64_t bytes, bool direct) override;
  int64_t Write(int ino, uint64_t offset, uint64_t bytes, bool direct) override;
  int64_t Fsync(int ino) override;
  uint64_t PageForMap(int ino, uint64_t block) override;
  uint64_t DirtyMappedPage(int ino, uint64_t block) override;

  void set_injector(FaultInjector* injector) { frontend_.set_injector(injector); }

  // Writes back every dirty page and issues the flush barrier (the
  // checkpoint/clone quiesce point).
  void FlushAll();

  // --- introspection -------------------------------------------------------
  uint64_t trace_hash() const { return trace_hash_.value(); }
  const BlkfsCounters& counters() const { return counters_; }
  const VirtioBlkStats& device_stats() const { return frontend_.stats(); }
  BlkFrontend& frontend() { return frontend_; }
  const BlkfsConfig& config() const { return cfg_; }
  size_t cached_pages() const { return cache_.size(); }
  uint64_t dirty_pages() const { return dirty_count_; }
  // Counters as "blkfs/..." metrics (BenchObsSink / --metrics-csv).
  void ExportMetrics(MetricsRegistry& metrics) const;

  // --- snapshot / clone (CKISNAP1 rides; DESIGN.md §10, §15) ---------------
  // Serializes config, image tags, delta, inode table and trace hash
  // (after FlushAll — a checkpoint is crash-consistent by construction).
  void SnapCapture(SnapWriter& w);
  // Rebuilds a Blkfs for a restored engine: re-registers the image
  // (dedup), replays the delta, re-derives the cache from the restored
  // kernel's file_pages_. Null if the stream is corrupt.
  static std::unique_ptr<Blkfs> Restore(ContainerEngine& engine, LayerStore& store,
                                        SnapReader& r);
  // CoW fork alongside CloneContainer: flushes the parent, clones the
  // delta view, re-derives the cache from the clone kernel's (shared,
  // read-only) file pages.
  static std::unique_ptr<Blkfs> Clone(ContainerEngine& clone_engine, Blkfs& parent);

 private:
  struct Inode {
    int ino = -1;
    uint64_t name = 0;
    uint64_t size = 0;        // bytes
    uint64_t base_start = 0;  // first device block of the base extent
    uint64_t base_blocks = 0;
    // File blocks past the base extent, allocated on first write.
    std::map<uint64_t, uint64_t> extra;  // file block -> device block
    uint64_t next_seq = 0;               // readahead sequential-run hint
  };

  // Raw constructor for Restore/Clone: adopts an already-open view.
  Blkfs(ContainerEngine& engine, LayerStore& store, int view_id, const BlkfsConfig& cfg);

  static uint64_t Key(int ino, uint64_t block) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(ino)) << 32) | (block & 0xffffffffull);
  }
  // Content tag of the next write to (ino, block): unique per write stamp.
  uint64_t NextWriteTag(int ino, uint64_t block) {
    return Digest().Mix({Key(ino, block), ++write_seq_}).value();
  }

  // Cache lookup + miss fill (with readahead) for one page. `fill` false
  // skips the device read (whole-block overwrite). On failure returns
  // nullptr with last_error_ set (kEIO / kENOMEM).
  BlkfsPage* EnsurePage(int ino, uint64_t block, bool fill);
  // Device block backing file block `fblock`; allocates past-base blocks
  // when `alloc`, else kNoPage for unwritten holes.
  uint64_t DeviceBlockFor(Inode& node, uint64_t fblock, bool alloc);
  // Breaks cross-container sharing of a cached page before dirtying it.
  bool CowBreak(BlkfsPage& page);
  void MarkDirty(BlkfsPage& page);
  // Writes back dirty pages (of `only_ino`, or all when -1), ascending
  // key order, asynchronously (callers Drain/Barrier).
  void WritebackDirty(int only_ino);
  // Evicts cold unpinned pages until at/below capacity. `keep_key` (the
  // page about to be returned to a caller) is never evicted.
  void EvictToCapacity(uint64_t keep_key);
  void Touch(BlkfsPage& page) { lru_.splice(lru_.end(), lru_, page.lru); }
  void Trace(BlkfsOp op, uint64_t ino, uint64_t block, uint64_t tag) {
    trace_hash_.Mix({static_cast<uint64_t>(op), ino, block, tag});
  }
  // Re-derives radix + LRU from the kernel's file_pages_ (restore/clone).
  void RebuildCacheFromKernel();

  ContainerEngine& engine_;
  SimContext& ctx_;
  GuestKernel& kernel_;
  BlkfsConfig cfg_;
  BlkFrontend frontend_;
  std::map<uint64_t, int> names_;  // file name -> local inode
  std::vector<Inode> inodes_;
  uint64_t next_device_block_ = 0;
  BlkfsPageRadix cache_;
  std::list<uint64_t> lru_;  // cache keys, front = coldest
  uint64_t dirty_count_ = 0;
  uint64_t write_seq_ = 0;  // monotonic write stamp (feeds content tags)
  Digest trace_hash_;
  BlkfsCounters counters_;
  int64_t last_error_ = 0;
};

// Rebuilds a restored container's filesystem from the stream's blkfs blob
// (RestoreOutcome::blkfs_state). Null when the stream carried no blkfs
// section or the blob is corrupt.
std::unique_ptr<Blkfs> RestoreBlkfsState(ContainerEngine& engine, LayerStore& store,
                                         const std::vector<uint8_t>& blob);

}  // namespace cki

#endif  // SRC_BLKFS_BLKFS_H_
