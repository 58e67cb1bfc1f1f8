#include "src/blkfs/blkfs.h"

#include <cassert>
#include <utility>

#include "src/obs/metrics_registry.h"
#include "src/snap/snap_stream.h"

namespace cki {

// --- radix tree --------------------------------------------------------------

BlkfsPage* BlkfsPageRadix::Find(uint64_t key) const {
  if (Overflows(key)) {
    return nullptr;
  }
  Node* cur = root_;
  for (int h = height_; h > 1; --h) {
    void* child = cur->slots[(key >> ((h - 1) * kShift)) & (kFanout - 1)];
    if (child == nullptr) {
      return nullptr;
    }
    cur = static_cast<Node*>(child);
  }
  return static_cast<BlkfsPage*>(cur->slots[key & (kFanout - 1)]);
}

BlkfsPage* BlkfsPageRadix::Insert(uint64_t key) {
  while (Overflows(key)) {
    Node* n = new Node;
    n->slots[0] = root_;
    n->count = 1;
    root_ = n;
    height_++;
  }
  Node* cur = root_;
  for (int h = height_; h > 1; --h) {
    size_t idx = (key >> ((h - 1) * kShift)) & (kFanout - 1);
    if (cur->slots[idx] == nullptr) {
      cur->slots[idx] = new Node;
      cur->count++;
    }
    cur = static_cast<Node*>(cur->slots[idx]);
  }
  size_t idx = key & (kFanout - 1);
  if (cur->slots[idx] == nullptr) {
    cur->slots[idx] = new BlkfsPage;
    cur->count++;
    size_++;
  }
  return static_cast<BlkfsPage*>(cur->slots[idx]);
}

bool BlkfsPageRadix::EraseRec(Node* n, int height, uint64_t key) {
  size_t idx = (key >> ((height - 1) * kShift)) & (kFanout - 1);
  void* child = n->slots[idx];
  if (child == nullptr) {
    return false;
  }
  if (height == 1) {
    delete static_cast<BlkfsPage*>(child);
    n->slots[idx] = nullptr;
    n->count--;
    size_--;
    return true;
  }
  Node* c = static_cast<Node*>(child);
  if (!EraseRec(c, height - 1, key)) {
    return false;
  }
  if (c->count == 0) {
    delete c;
    n->slots[idx] = nullptr;
    n->count--;
  }
  return true;
}

void BlkfsPageRadix::Erase(uint64_t key) {
  if (!Overflows(key)) {
    EraseRec(root_, height_, key);
  }
}

void BlkfsPageRadix::FreeNode(Node* n, int height) {
  for (size_t i = 0; i < kFanout; ++i) {
    void* child = n->slots[i];
    if (child == nullptr) {
      continue;
    }
    if (height == 1) {
      delete static_cast<BlkfsPage*>(child);
    } else {
      FreeNode(static_cast<Node*>(child), height - 1);
    }
  }
  delete n;
}

// --- image building ----------------------------------------------------------

int BuildBlkfsImage(LayerStore& store, const BlkfsImageSpec& spec) {
  std::vector<uint64_t> tags;
  for (const BlkfsFileSpec& f : spec.files) {
    for (uint64_t b = 0; b < f.blocks; ++b) {
      tags.push_back(BlkfsImageTag(f.tag_seed, b));
    }
  }
  return store.RegisterImage(std::move(tags));
}

// --- lifecycle ---------------------------------------------------------------

Blkfs::Blkfs(ContainerEngine& engine, LayerStore& store, int view_id, const BlkfsConfig& cfg)
    : engine_(engine),
      ctx_(engine.machine().ctx()),
      kernel_(engine.kernel()),
      cfg_(cfg),
      frontend_(engine, store, view_id, cfg.queue_depth) {
  kernel_.set_blkfs(this);
}

Blkfs::Blkfs(ContainerEngine& engine, LayerStore& store, int image_id, const BlkfsImageSpec& spec,
             const BlkfsConfig& cfg)
    : Blkfs(engine, store, store.OpenView(image_id, engine.id()), cfg) {
  uint64_t start = 0;
  for (const BlkfsFileSpec& f : spec.files) {
    int ino = static_cast<int>(inodes_.size());
    Inode node;
    node.ino = ino;
    node.name = f.name;
    node.size = f.blocks * kPageSize;
    node.base_start = start;
    node.base_blocks = f.blocks;
    names_[f.name] = ino;
    inodes_.push_back(std::move(node));
    start += f.blocks;
  }
  next_device_block_ = start;
}

Blkfs::~Blkfs() { kernel_.set_blkfs(nullptr); }

// --- syscall surface ---------------------------------------------------------

int64_t Blkfs::Open(uint64_t name_arg) {
  auto it = names_.find(name_arg);
  if (it != names_.end()) {
    return it->second;
  }
  int ino = static_cast<int>(inodes_.size());
  Inode node;
  node.ino = ino;
  node.name = name_arg;
  names_[name_arg] = ino;
  inodes_.push_back(std::move(node));
  return ino;
}

int64_t Blkfs::FileSize(int ino) const {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kEBADF;
  }
  return static_cast<int64_t>(inodes_[static_cast<size_t>(ino)].size);
}

int64_t Blkfs::Read(int ino, uint64_t offset, uint64_t bytes, bool direct) {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kEBADF;
  }
  Inode& node = inodes_[static_cast<size_t>(ino)];
  if (bytes == 0 || offset >= node.size) {
    return 0;
  }
  if (bytes > node.size - offset) {
    bytes = node.size - offset;
  }
  uint64_t first = offset >> kPageShift;
  uint64_t last = (offset + bytes - 1) >> kPageShift;
  if (direct) {
    // O_DIRECT: device I/O per request, no cached pages, no readahead.
    // (Pending buffered dirty data is not flushed first — mixing modes
    // without fsync is as undefined here as on a real kernel.)
    std::vector<uint64_t> devs;
    for (uint64_t fb = first; fb <= last; ++fb) {
      uint64_t dev = DeviceBlockFor(node, fb, /*alloc=*/false);
      if (dev != kNoPage) {
        devs.push_back(dev);  // unwritten holes read as zeros, no I/O
      }
      counters_.direct_reads++;
      Trace(BlkfsOp::kDirectRead, static_cast<uint64_t>(ino), fb, 0);
    }
    if (!devs.empty()) {
      std::vector<BlkReadOutcome> outs = frontend_.ReadBlocks(devs.data(), devs.size());
      for (const BlkReadOutcome& o : outs) {
        if (o.io_error) {
          return kEIO;
        }
      }
    }
    return static_cast<int64_t>(bytes);
  }
  for (uint64_t fb = first; fb <= last; ++fb) {
    if (EnsurePage(ino, fb, /*fill=*/true) == nullptr) {
      return last_error_;
    }
  }
  Trace(BlkfsOp::kRead, static_cast<uint64_t>(ino), first, bytes);
  return static_cast<int64_t>(bytes);
}

int64_t Blkfs::Write(int ino, uint64_t offset, uint64_t bytes, bool direct) {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kEBADF;
  }
  if (bytes == 0) {
    return 0;
  }
  Inode& node = inodes_[static_cast<size_t>(ino)];
  uint64_t end = offset + bytes;
  if (end > node.size) {
    node.size = end;
  }
  uint64_t first = offset >> kPageShift;
  uint64_t last = (end - 1) >> kPageShift;
  if (direct) {
    for (uint64_t fb = first; fb <= last; ++fb) {
      uint64_t dev = DeviceBlockFor(node, fb, /*alloc=*/true);
      uint64_t tag = NextWriteTag(ino, fb);
      frontend_.WriteBlock(dev, tag);
      counters_.direct_writes++;
      Trace(BlkfsOp::kDirectWrite, static_cast<uint64_t>(ino), fb, tag);
      // Keep the cache coherent with the device: overlapping clean
      // unmapped pages drop; dirty ones must not resurface stale data
      // in a later writeback.
      uint64_t key = Key(ino, fb);
      BlkfsPage* m = cache_.Find(key);
      if (m != nullptr) {
        if (m->dirty) {
          m->dirty = false;
          m->pending_tag = 0;
          dirty_count_--;
        }
        if (kernel_.PageRefs(m->pa) == 1) {
          kernel_.UnpinFilePage(kBlkfsInoBase + ino, fb);
          lru_.erase(m->lru);
          cache_.Erase(key);
        }
      }
    }
    frontend_.Drain();
    return static_cast<int64_t>(bytes);
  }
  for (uint64_t fb = first; fb <= last; ++fb) {
    uint64_t block_start = fb << kPageShift;
    bool whole = offset <= block_start && end >= block_start + kPageSize;
    BlkfsPage* m = EnsurePage(ino, fb, /*fill=*/!whole);
    if (m == nullptr) {
      return last_error_;
    }
    if (engine_.FrameShared(m->pa) && !CowBreak(*m)) {
      return last_error_;
    }
    MarkDirty(*m);
  }
  Trace(BlkfsOp::kWrite, static_cast<uint64_t>(ino), first, bytes);
  return static_cast<int64_t>(bytes);
}

int64_t Blkfs::Fsync(int ino) {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kEBADF;
  }
  WritebackDirty(ino);
  frontend_.Barrier();
  counters_.fsyncs++;
  Trace(BlkfsOp::kFsync, static_cast<uint64_t>(ino), 0, write_seq_);
  return 0;
}

void Blkfs::FlushAll() {
  WritebackDirty(-1);
  frontend_.Barrier();
}

// --- mmap cooperation --------------------------------------------------------

uint64_t Blkfs::PageForMap(int ino, uint64_t block) {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kNoPage;
  }
  BlkfsPage* m = EnsurePage(ino, block, /*fill=*/true);
  return m != nullptr ? m->pa : kNoPage;
}

uint64_t Blkfs::DirtyMappedPage(int ino, uint64_t block) {
  if (ino < 0 || static_cast<size_t>(ino) >= inodes_.size()) {
    return kNoPage;
  }
  BlkfsPage* m = EnsurePage(ino, block, /*fill=*/true);
  if (m == nullptr) {
    return kNoPage;
  }
  if (engine_.FrameShared(m->pa) && !CowBreak(*m)) {
    return kNoPage;
  }
  MarkDirty(*m);
  return m->pa;
}

// --- cache internals ---------------------------------------------------------

uint64_t Blkfs::DeviceBlockFor(Inode& node, uint64_t fblock, bool alloc) {
  if (fblock < node.base_blocks) {
    return node.base_start + fblock;
  }
  auto it = node.extra.find(fblock);
  if (it != node.extra.end()) {
    return it->second;
  }
  if (!alloc) {
    return kNoPage;
  }
  uint64_t dev = next_device_block_++;
  node.extra[fblock] = dev;
  return dev;
}

BlkfsPage* Blkfs::EnsurePage(int ino, uint64_t block, bool fill) {
  ctx_.ChargeWork(ctx_.cost().blkfs_cache_lookup);
  uint64_t key = Key(ino, block);
  if (BlkfsPage* m = cache_.Find(key)) {
    counters_.hits++;
    Touch(*m);
    // Hits extend the sequential run too, so a stream that alternates
    // prefetched hits and window-boundary misses keeps its readahead.
    inodes_[static_cast<size_t>(ino)].next_seq = block + 1;
    Trace(BlkfsOp::kCacheHit, static_cast<uint64_t>(ino), block, 0);
    return m;
  }
  counters_.misses++;
  Inode& node = inodes_[static_cast<size_t>(ino)];
  // The miss batch: the faulting block, plus the readahead window when
  // the access continues the inode's sequential run.
  struct Want {
    uint64_t fblock = 0;
    uint64_t dev = kNoPage;
    bool readahead = false;
  };
  std::vector<Want> want;
  want.push_back({block, fill ? DeviceBlockFor(node, block, false) : kNoPage, false});
  if (fill && want[0].dev != kNoPage && block == node.next_seq && cfg_.readahead_window > 0) {
    uint64_t size_blocks = (node.size + kPageSize - 1) >> kPageShift;
    for (uint64_t r = 1; r <= cfg_.readahead_window; ++r) {
      uint64_t fb = block + r;
      if (fb >= size_blocks || cache_.Find(Key(ino, fb)) != nullptr) {
        break;
      }
      uint64_t dev = DeviceBlockFor(node, fb, false);
      if (dev == kNoPage) {
        break;  // a hole ends the run
      }
      want.push_back({fb, dev, true});
    }
  }
  node.next_seq = block + 1;
  std::vector<uint64_t> devs;
  for (const Want& w : want) {
    if (w.dev != kNoPage) {
      devs.push_back(w.dev);
    }
  }
  std::vector<BlkReadOutcome> outs;
  if (!devs.empty()) {
    outs = frontend_.ReadBlocks(devs.data(), devs.size());
  }
  size_t oi = 0;
  BlkfsPage* primary = nullptr;
  for (const Want& w : want) {
    uint64_t pa = kNoPage;
    uint64_t tag = 0;
    if (w.dev != kNoPage) {
      const BlkReadOutcome& o = outs[oi++];
      if (o.io_error) {
        if (!w.readahead) {
          last_error_ = kEIO;
          return nullptr;
        }
        continue;  // readahead errors drop the prefetch, nothing more
      }
      tag = o.tag;
      if (o.shared_host_pa != kNoPage) {
        // Materialized base block: adopt the shared host frame instead
        // of filling a private copy — the cross-container dedup.
        pa = engine_.AdoptSharedFrame(o.shared_host_pa);
        counters_.base_shares++;
        Trace(BlkfsOp::kBaseShare, static_cast<uint64_t>(ino), w.fblock, tag);
      }
    }
    if (pa == kNoPage) {
      pa = engine_.AllocDataPage();
      if (pa == kNoPage) {
        if (!w.readahead) {
          last_error_ = kENOMEM;
          return nullptr;
        }
        continue;
      }
    }
    BlkfsPage* m = cache_.Insert(Key(ino, w.fblock));
    m->ino = ino;
    m->block = w.fblock;
    m->pa = pa;
    m->dirty = false;
    m->pending_tag = 0;
    lru_.push_back(Key(ino, w.fblock));
    m->lru = std::prev(lru_.end());
    kernel_.PinFilePage(kBlkfsInoBase + ino, w.fblock, pa);
    if (w.readahead) {
      counters_.readahead++;
      Trace(BlkfsOp::kReadahead, static_cast<uint64_t>(ino), w.fblock, tag);
    } else {
      Trace(BlkfsOp::kCacheMiss, static_cast<uint64_t>(ino), w.fblock, tag);
      primary = m;
    }
  }
  EvictToCapacity(key);
  return primary;
}

bool Blkfs::CowBreak(BlkfsPage& page) {
  uint64_t new_pa = engine_.AllocDataPage();
  if (new_pa == kNoPage) {
    last_error_ = kENOMEM;
    return false;
  }
  ctx_.ChargeWork(ctx_.cost().copy_per_4k);
  // Repoints the kernel cache entry and every process mapping, moves the
  // refs, and releases the shared frame through the engine.
  kernel_.ReplaceFilePage(kBlkfsInoBase + page.ino, page.block, page.pa, new_pa);
  page.pa = new_pa;
  counters_.cow_breaks++;
  Trace(BlkfsOp::kCowBreak, static_cast<uint64_t>(page.ino), page.block, 0);
  return true;
}

void Blkfs::MarkDirty(BlkfsPage& page) {
  if (!page.dirty) {
    page.dirty = true;
    dirty_count_++;
  }
  page.pending_tag = NextWriteTag(page.ino, page.block);
  if (dirty_count_ >= cfg_.writeback_epoch) {
    // Epoch writeback: batched and asynchronous — no barrier; only
    // fsync pays the flush.
    WritebackDirty(-1);
    frontend_.Drain();
  }
}

void Blkfs::WritebackDirty(int only_ino) {
  cache_.ForEach([&](BlkfsPage& m) {
    if (!m.dirty || (only_ino >= 0 && m.ino != only_ino)) {
      return;
    }
    Inode& node = inodes_[static_cast<size_t>(m.ino)];
    uint64_t dev = DeviceBlockFor(node, m.block, /*alloc=*/true);
    ctx_.ChargeWork(ctx_.cost().blkfs_writeback_page);
    frontend_.WriteBlock(dev, m.pending_tag);
    Trace(BlkfsOp::kWriteback, static_cast<uint64_t>(m.ino), m.block, m.pending_tag);
    m.dirty = false;
    m.pending_tag = 0;
    dirty_count_--;
    counters_.writebacks++;
    // Demote writable mappings so the next store refaults into the
    // dirty-tracking path.
    kernel_.WriteProtectFilePage(kBlkfsInoBase + m.ino, m.block, m.pa);
  });
}

void Blkfs::EvictToCapacity(uint64_t keep_key) {
  while (cache_.size() > cfg_.cache_pages) {
    bool evicted = false;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      uint64_t key = *it;
      if (key == keep_key) {
        continue;
      }
      BlkfsPage* m = cache_.Find(key);
      assert(m != nullptr);
      if (kernel_.PageRefs(m->pa) != 1) {
        continue;  // mapped by a process: pinned, skip
      }
      if (m->dirty) {
        Inode& node = inodes_[static_cast<size_t>(m->ino)];
        ctx_.ChargeWork(ctx_.cost().blkfs_writeback_page);
        frontend_.WriteBlock(DeviceBlockFor(node, m->block, true), m->pending_tag);
        Trace(BlkfsOp::kWriteback, static_cast<uint64_t>(m->ino), m->block, m->pending_tag);
        m->dirty = false;
        dirty_count_--;
        counters_.writebacks++;
        frontend_.Drain();
      }
      counters_.evictions++;
      Trace(BlkfsOp::kEvict, static_cast<uint64_t>(m->ino), m->block, 0);
      // Dropping the pin frees the page through the port (and releases
      // a cross-container share if this was an adopted base frame).
      kernel_.UnpinFilePage(kBlkfsInoBase + m->ino, m->block);
      lru_.erase(it);
      cache_.Erase(key);
      evicted = true;
      break;
    }
    if (!evicted) {
      break;  // everything resident is mapped: over capacity is allowed
    }
  }
}

void Blkfs::RebuildCacheFromKernel() {
  for (const auto& [key, pa] : kernel_.file_pages()) {
    if (!IsBlkfsIno(key.first)) {
      continue;
    }
    int ino = key.first - kBlkfsInoBase;
    uint64_t k = Key(ino, key.second);
    BlkfsPage* m = cache_.Insert(k);
    m->ino = ino;
    m->block = key.second;
    m->pa = pa;
    lru_.push_back(k);
    m->lru = std::prev(lru_.end());
  }
}

// --- metrics -----------------------------------------------------------------

void Blkfs::ExportMetrics(MetricsRegistry& metrics) const {
  metrics.Inc("blkfs/cache_hit", counters_.hits);
  metrics.Inc("blkfs/cache_miss", counters_.misses);
  metrics.Inc("blkfs/readahead", counters_.readahead);
  metrics.Inc("blkfs/writeback", counters_.writebacks);
  metrics.Inc("blkfs/evict", counters_.evictions);
  metrics.Inc("blkfs/fsync", counters_.fsyncs);
  metrics.Inc("blkfs/direct_read", counters_.direct_reads);
  metrics.Inc("blkfs/direct_write", counters_.direct_writes);
  metrics.Inc("blkfs/base_share", counters_.base_shares);
  metrics.Inc("blkfs/cow_break", counters_.cow_breaks);
  metrics.Inc("blkfs/io_error", frontend_.io_errors());
  metrics.Inc("blkfs/dev_reads", device_stats().reads);
  metrics.Inc("blkfs/dev_writes", device_stats().writes);
  metrics.Inc("blkfs/dev_flushes", device_stats().flushes);
}

// --- snapshot / clone --------------------------------------------------------

void Blkfs::SnapCapture(SnapWriter& w) {
  FlushAll();
  w.PutU64(cfg_.cache_pages);
  w.PutU64(cfg_.readahead_window);
  w.PutU64(cfg_.writeback_epoch);
  w.PutU32(static_cast<uint32_t>(cfg_.queue_depth));
  w.PutU64(write_seq_);
  w.PutU64(next_device_block_);
  w.PutU64(trace_hash_.value());
  LayerStore& store = frontend_.store();
  const BlkImage& image = store.image(store.image_of(frontend_.view()));
  w.PutU32(static_cast<uint32_t>(image.block_tags.size()));
  for (uint64_t tag : image.block_tags) {
    w.PutU64(tag);
  }
  const std::map<uint64_t, uint64_t>& delta = store.delta(frontend_.view());
  w.PutU32(static_cast<uint32_t>(delta.size()));
  for (const auto& [block, tag] : delta) {
    w.PutU64(block);
    w.PutU64(tag);
  }
  w.PutU32(static_cast<uint32_t>(inodes_.size()));
  for (const Inode& node : inodes_) {
    w.PutU64(node.name);
    w.PutU64(node.size);
    w.PutU64(node.base_start);
    w.PutU64(node.base_blocks);
    w.PutU64(node.next_seq);
    w.PutU32(static_cast<uint32_t>(node.extra.size()));
    for (const auto& [fb, dev] : node.extra) {
      w.PutU64(fb);
      w.PutU64(dev);
    }
  }
}

std::unique_ptr<Blkfs> Blkfs::Restore(ContainerEngine& engine, LayerStore& store, SnapReader& r) {
  BlkfsConfig cfg;
  cfg.cache_pages = r.GetU64();
  cfg.readahead_window = r.GetU64();
  cfg.writeback_epoch = r.GetU64();
  cfg.queue_depth = static_cast<int>(r.GetU32());
  uint64_t write_seq = r.GetU64();
  uint64_t next_device_block = r.GetU64();
  uint64_t trace_hash = r.GetU64();
  uint64_t n_tags = r.GetCount(8);
  std::vector<uint64_t> tags;
  tags.reserve(n_tags);
  for (uint64_t i = 0; i < n_tags && r.ok(); ++i) {
    tags.push_back(r.GetU64());
  }
  if (!r.ok()) {
    return nullptr;
  }
  // Re-attach, don't copy: an identical image dedups to the machine's
  // existing record (and its already-materialized frames).
  int image_id = store.RegisterImage(std::move(tags));
  int view = store.OpenView(image_id, engine.id());
  std::unique_ptr<Blkfs> fs(new Blkfs(engine, store, view, cfg));
  uint64_t n_delta = r.GetCount(8 + 8);
  for (uint64_t i = 0; i < n_delta && r.ok(); ++i) {
    uint64_t block = r.GetU64();
    uint64_t tag = r.GetU64();
    store.WriteDelta(view, block, tag);
  }
  uint64_t n_inodes = r.GetCount(8 * 5 + 4);
  for (uint64_t i = 0; i < n_inodes && r.ok(); ++i) {
    Inode node;
    node.ino = static_cast<int>(i);
    node.name = r.GetU64();
    node.size = r.GetU64();
    node.base_start = r.GetU64();
    node.base_blocks = r.GetU64();
    node.next_seq = r.GetU64();
    uint64_t n_extra = r.GetCount(8 + 8);
    for (uint64_t e = 0; e < n_extra && r.ok(); ++e) {
      uint64_t fb = r.GetU64();
      uint64_t dev = r.GetU64();
      node.extra[fb] = dev;
    }
    fs->names_[node.name] = node.ino;
    fs->inodes_.push_back(std::move(node));
  }
  if (!r.ok()) {
    return nullptr;
  }
  fs->write_seq_ = write_seq;
  fs->next_device_block_ = next_device_block;
  fs->trace_hash_ = Digest::Resume(trace_hash);
  fs->RebuildCacheFromKernel();
  return fs;
}

std::unique_ptr<Blkfs> RestoreBlkfsState(ContainerEngine& engine, LayerStore& store,
                                         const std::vector<uint8_t>& blob) {
  SnapReader r(blob);
  if (!r.GetBool() || !r.ok()) {
    return nullptr;
  }
  std::unique_ptr<Blkfs> fs = Blkfs::Restore(engine, store, r);
  return r.ok() ? std::move(fs) : nullptr;
}

std::unique_ptr<Blkfs> Blkfs::Clone(ContainerEngine& clone_engine, Blkfs& parent) {
  // Quiesce first: the clone forks a crash-consistent state (all dirty
  // pages written back to the parent's delta, which the clone copies).
  parent.FlushAll();
  LayerStore& store = parent.frontend_.store();
  int view = store.CloneView(parent.frontend_.view(), clone_engine.id());
  std::unique_ptr<Blkfs> fs(new Blkfs(clone_engine, store, view, parent.cfg_));
  fs->names_ = parent.names_;
  fs->inodes_ = parent.inodes_;
  fs->next_device_block_ = parent.next_device_block_;
  fs->write_seq_ = parent.write_seq_;
  fs->trace_hash_ = parent.trace_hash_;
  fs->RebuildCacheFromKernel();
  return fs;
}

}  // namespace cki
