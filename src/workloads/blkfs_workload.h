// Storage workloads over the block-backed filesystem (src/blkfs): a
// WAL-commit loop and a sequential scan over real files, so every access
// pays (or saves) what the page cache decides — cache hits, readahead,
// epoch writeback, and the fsync barrier path.
// Results carry the cache-counter deltas so benches can print hit/miss/
// writeback columns next to ops/sec.
#ifndef SRC_WORKLOADS_BLKFS_WORKLOAD_H_
#define SRC_WORKLOADS_BLKFS_WORKLOAD_H_

#include "src/blkfs/blkfs.h"
#include "src/runtime/engine.h"

namespace cki {

struct BlkfsRunResult {
  SimNanos elapsed = 0;
  double ops_per_sec = 0;
  // Cache-counter deltas over the run.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t readahead = 0;
  uint64_t writebacks = 0;
  uint64_t base_shares = 0;
  // Device-side deltas.
  uint64_t dev_reads = 0;
  uint64_t dev_writes = 0;
  uint64_t dev_flushes = 0;
};

// WAL commit loop on a blkfs file: per transaction one page write to the
// log window plus fsync (writeback + flush barrier — nothing batches).
BlkfsRunResult RunBlkfsWal(ContainerEngine& engine, Blkfs& fs, int transactions = 200,
                           uint64_t wal_name = 0x6c6177 /* "wal" */);

// Sequential scan of `blocks` pages of `file_name` through the cache: a
// cold pass streams through readahead; a warm pass over the same trace
// should be all hits (the bench gate).
BlkfsRunResult RunBlkfsScan(ContainerEngine& engine, Blkfs& fs, uint64_t file_name,
                            uint64_t blocks);

}  // namespace cki

#endif  // SRC_WORKLOADS_BLKFS_WORKLOAD_H_
