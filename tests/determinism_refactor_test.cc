// Regression tests for the ISSUE-9 raw-speed refactor (DESIGN.md §14).
//
// The refactor swapped hash maps for direct-indexed tables (FrameAllocator
// owner nodes, engine gPA backing tables, the PVM shadow-root vector) and batched the
// FNV-1a digest mixing. None of that may change a single simulated result:
//
//  * the canonical FNV-1a Digest must be bit-identical to the chained
//    per-word form every subsystem used before;
//  * the kill-sweep free list must return frames in ascending PA order *by
//    construction* — never because some container happened to iterate a
//    hash map in a lucky order;
//  * a kill/reap cycle must return the allocator to its exact pre-alloc
//    frame footprint, so a re-admitted container replays on the same
//    frames (arena reuse);
//  * the full Figure-13 sweep (sampling off) must replay bit-identical to
//    the pre-refactor golden hash at --threads 1, 2 and 8.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench/fig13_cells.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/host/frame_allocator.h"
#include "src/runtime/runtime.h"
#include "src/runtime/two_stage_engine.h"
#include "src/sim/fnv.h"
#include "src/snap/snapshot.h"

namespace cki {
namespace {

// --- canonical FNV-1a --------------------------------------------------------

// The FNV-1a byte step, written out independently of src/sim/fnv.h.
uint64_t ByteStep(uint64_t h, uint8_t b) { return (h ^ b) * 0x100000001b3ULL; }

TEST(CanonicalFnvTest, BatchedWordsMatchChainedMix) {
  const uint64_t words[] = {0, 1, 0xdeadbeefULL, ~0ULL, 0x0123456789abcdefULL};
  uint64_t chained = kFnvOffsetBasis;
  Digest one_by_one;
  for (uint64_t w : words) {
    chained = FnvMix64(chained, w);
    one_by_one.Mix(w);
  }
  EXPECT_EQ(Digest().Mix(words).value(), chained);
  EXPECT_EQ(one_by_one.value(), chained);
  EXPECT_EQ(Digest().Mix({0, 1, 0xdeadbeefULL, ~0ULL, 0x0123456789abcdefULL}).value(), chained);
}

TEST(CanonicalFnvTest, Mix64IsByteWiseLittleEndian) {
  // Mix must equal folding the value's 8 bytes LSB-first — the layout
  // every pre-refactor subsystem used, so digests cannot silently change.
  const uint64_t v = 0x1122334455667788ULL;
  uint64_t by_bytes = kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    by_bytes = ByteStep(by_bytes, static_cast<uint8_t>(v >> (i * 8)));
  }
  EXPECT_EQ(Digest().Mix(v).value(), by_bytes);
  // The published FNV-1a constants, not lookalikes; a fresh digest sits
  // at the offset basis.
  EXPECT_EQ(kFnvOffsetBasis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(kFnvPrime, 0x100000001b3ULL);
  EXPECT_EQ(Digest().value(), kFnvOffsetBasis);
  static_assert(Digest().Mix(v).value() == FnvMix64(kFnvOffsetBasis, v));
}

TEST(CanonicalFnvTest, BytesHelperMatchesByteLoop) {
  const uint8_t data[] = {0x00, 0xff, 0x42, 0x13, 0x37};
  uint64_t loop = kFnvOffsetBasis;
  for (uint8_t b : data) {
    loop = ByteStep(loop, b);
  }
  EXPECT_EQ(Digest().MixBytes(data).value(), loop);
}

TEST(CanonicalFnvTest, ResumedDigestContinuesTheChain) {
  // A digest stored mid-chain (CKISNAP1 keeps blkfs's) and resumed must
  // land exactly where the uninterrupted chain does.
  const uint8_t tail[] = {0x5a, 0xa5};
  Digest whole;
  whole.Mix({7, 8}).Mix(9).MixBytes(tail);
  Digest first_half;
  first_half.Mix({7, 8});
  EXPECT_EQ(Digest::Resume(first_half.value()).Mix(9).MixBytes(tail).value(), whole.value());
  EXPECT_EQ(Digest::Resume(kFnvOffsetBasis).value(), Digest().value());
}

// --- container-order independence -------------------------------------------

// The kill sweep must hand frames back in ascending PA order no matter how
// the dying owner's frames were interleaved with other owners' — the order
// is a property of the direct-indexed table, not of allocation history.
TEST(ReclaimOrderTest, KillSweepFreesAscendingRegardlessOfAllocOrder) {
  PhysMem mem;
  FrameAllocator alloc(mem, 0x1000'0000, 256);
  // Interleave two owners so owner 1's frames are non-contiguous.
  std::vector<uint64_t> owner1_frames;
  for (int i = 0; i < 12; ++i) {
    uint64_t pa = alloc.AllocFrame(i % 3 == 0 ? 2 : 1);
    if (i % 3 != 0) {
      owner1_frames.push_back(pa);
    }
  }
  ASSERT_EQ(alloc.ReclaimOwner(1), owner1_frames.size());
  // The free list is a stack, so re-allocation drains it highest-PA first:
  // exactly the reverse of ascending sweep order.
  for (auto it = owner1_frames.rbegin(); it != owner1_frames.rend(); ++it) {
    EXPECT_EQ(alloc.AllocFrame(5), *it);
  }
}

// Same scenario with the *other* interleaving: the reclaimed set is
// different, but the ascending-order guarantee holds identically.
TEST(ReclaimOrderTest, OrderGuaranteeIsConstructionalNotHistorical) {
  PhysMem mem;
  FrameAllocator a(mem, 0x1000'0000, 256);
  PhysMem mem2;
  FrameAllocator b(mem2, 0x1000'0000, 256);
  // a: owner 1 gets even slots; b: owner 1 gets odd slots.
  for (int i = 0; i < 16; ++i) {
    a.AllocFrame(i % 2 == 0 ? 1 : 2);
    b.AllocFrame(i % 2 == 0 ? 2 : 1);
  }
  a.ReclaimOwner(1);
  b.ReclaimOwner(1);
  uint64_t prev_a = 0;
  uint64_t prev_b = 0;
  for (int i = 0; i < 8; ++i) {
    // Drain both free lists; each yields strictly descending PAs (stack of
    // an ascending sweep), proving neither depends on insertion history.
    uint64_t fa = a.AllocFrame(9);
    uint64_t fb = b.AllocFrame(9);
    if (i > 0) {
      EXPECT_LT(fa, prev_a);
      EXPECT_LT(fb, prev_b);
    }
    prev_a = fa;
    prev_b = fb;
  }
}

TEST(GpaArenaTest, DirectIndexedLookupAndAbsentSentinel) {
  GpaArena arena(/*base_gfn=*/100);
  EXPECT_EQ(arena.Backing(100), 0u);  // absent
  EXPECT_EQ(arena.Backing(99), 0u);   // below base: safely absent (unsigned wrap)
  arena.Bind(100, 0x1'0000'0000ULL);
  arena.Bind(163, 0x1'0004'0000ULL);
  EXPECT_EQ(arena.Backing(100), 0x1'0000'0000ULL);
  EXPECT_EQ(arena.Backing(163), 0x1'0004'0000ULL);
  EXPECT_EQ(arena.Backing(130), 0u);  // in range, never set
  arena.Unbind(100);
  EXPECT_EQ(arena.Backing(100), 0u);
  arena.Clear();
  EXPECT_EQ(arena.Backing(163), 0u);
}

TEST(GpaArenaTest, BumpsFromBaseAndReusesLifo) {
  GpaArena arena(/*base_gfn=*/1);
  EXPECT_EQ(arena.Alloc(), 1 * kPageSize);
  EXPECT_EQ(arena.Alloc(), 2 * kPageSize);
  EXPECT_EQ(arena.Alloc(), 3 * kPageSize);
  arena.Free(1 * kPageSize);
  arena.Free(3 * kPageSize);
  EXPECT_EQ(arena.Alloc(), 3 * kPageSize);  // most recently freed first
  EXPECT_EQ(arena.Alloc(), 1 * kPageSize);
  EXPECT_EQ(arena.Alloc(), 4 * kPageSize);
  arena.Free(2 * kPageSize);
  arena.Clear();  // the kill path drops the free list, never rewinds the bump
  EXPECT_EQ(arena.Alloc(), 5 * kPageSize);
}

// --- arena reuse: exact pre-alloc footprint after kill/reap ------------------

TEST(ArenaReuseTest, KillReapRestoresExactFrameFootprint) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  auto tmpl = std::make_unique<CkiEngine>(machine, CkiAblation::kNone,
                                          /*segment_pages=*/1024);
  tmpl->Boot();
  tmpl->MmapAnon(32 * kPageSize, /*populate=*/true);
  const uint64_t baseline = machine.frames().allocated_frames();

  auto run_cycle = [&machine, &tmpl](std::vector<uint64_t>* footprint) {
    std::unique_ptr<ContainerEngine> clone = CloneContainer(*tmpl);
    uint64_t heap = clone->MmapAnon(16 * kPageSize, /*populate=*/false);
    for (int i = 0; i < 16; ++i) {
      clone->UserTouch(heap + i * kPageSize, /*write=*/true);
    }
    const OwnerId id = clone->id();
    footprint->push_back(machine.frames().allocated_frames());
    footprint->push_back(machine.frames().OwnedFrames(id));
    clone->KillFromFault();
    clone.reset();
    EXPECT_EQ(machine.frames().OwnedFrames(id), 0u);
    EXPECT_EQ(machine.frames().SharedFrames(id), 0u);
  };

  std::vector<uint64_t> first, second;
  run_cycle(&first);
  // After the reap the allocator is back to the exact pre-clone footprint:
  // nothing leaked, nothing still carved.
  EXPECT_EQ(machine.frames().allocated_frames(), baseline);
  run_cycle(&second);
  EXPECT_EQ(machine.frames().allocated_frames(), baseline);
  // The second clone's footprint replays the first's exactly — same frame
  // count allocated, same count owned — i.e. the arena was *reused*, not
  // grown.
  EXPECT_EQ(first, second);
}

// --- golden replay: sampling-off bit-identical across thread counts ----------

// The full fig13 sweep replays to the pre-refactor golden hash at 1, 2 and
// 8 worker threads. This is the test-suite twin of the bench_ext_simspeed
// hard gate: any hot-path "optimisation" that moves a simulated result
// fails here before it can ship.
TEST(SimSpeedDeterminismTest, Fig13SweepMatchesPreRefactorGolden) {
  constexpr uint64_t kGoldenHash = 0x487be7a142a8c9daULL;
  const std::vector<Fig13Cell> cells = Fig13CellList();
  for (uint32_t threads : {1u, 2u, 8u}) {
    ClusterConfig cc;
    cc.shards = static_cast<uint32_t>(cells.size());
    cc.threads = threads;
    cc.root_seed = 42;  // cells draw no randomness; any seed must agree
    SimCluster cluster(cc);
    ClusterResult result = cluster.Run(
        [&cells](const ShardTask& task) { return RunFig13Cell(cells[task.index]); });
    ASSERT_TRUE(result.all_ok());
    EXPECT_EQ(result.trace_hash(), kGoldenHash)
        << "threads=" << threads
        << ": refactor changed simulated results, not just speed";
  }
}

}  // namespace
}  // namespace cki
