// Tests for the host frame allocator: ownership tracking, free-list reuse,
// and contiguous segment carving (the CKI delegation primitive).
#include <gtest/gtest.h>

#include <set>

#include "src/host/frame_allocator.h"

namespace cki {
namespace {

class FrameAllocatorTest : public ::testing::Test {
 protected:
  FrameAllocatorTest() : alloc_(mem_, 0x1000'0000, 1024) {}

  PhysMem mem_;
  FrameAllocator alloc_;
};

TEST_F(FrameAllocatorTest, AllocatesDistinctInstalledFrames) {
  uint64_t a = alloc_.AllocFrame(1);
  uint64_t b = alloc_.AllocFrame(1);
  EXPECT_NE(a, b);
  EXPECT_TRUE(mem_.HasFrame(a));
  EXPECT_TRUE(mem_.HasFrame(b));
  EXPECT_EQ(alloc_.allocated_frames(), 2u);
}

TEST_F(FrameAllocatorTest, TracksOwnership) {
  uint64_t a = alloc_.AllocFrame(7);
  EXPECT_EQ(alloc_.OwnerOf(a), 7u);
  EXPECT_EQ(alloc_.OwnerOf(a + 0x123), 7u);  // same frame
  alloc_.FreeFrame(a);
  EXPECT_EQ(alloc_.OwnerOf(a), kHostOwner);
}

TEST_F(FrameAllocatorTest, FreeListRecyclesAndZeroes) {
  uint64_t a = alloc_.AllocFrame(1);
  mem_.WriteU64(a, 0xFFFF);
  alloc_.FreeFrame(a);
  uint64_t b = alloc_.AllocFrame(2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(mem_.ReadU64(b), 0u) << "recycled frames must be zeroed";
}

TEST_F(FrameAllocatorTest, SegmentsAreContiguousAndOwned) {
  PhysSegment seg = alloc_.AllocSegment(64, 9);
  EXPECT_EQ(seg.pages, 64u);
  EXPECT_EQ(seg.end() - seg.base, 64 * kPageSize);
  for (uint64_t pa = seg.base; pa < seg.end(); pa += kPageSize) {
    EXPECT_EQ(alloc_.OwnerOf(pa), 9u);
    EXPECT_TRUE(mem_.HasFrame(pa));
  }
  // The next single frame does not alias the segment.
  uint64_t next = alloc_.AllocFrame(1);
  EXPECT_FALSE(seg.Contains(next));
}

TEST_F(FrameAllocatorTest, SegmentContains) {
  PhysSegment seg{.base = 0x2000, .pages = 2};
  EXPECT_TRUE(seg.Contains(0x2000));
  EXPECT_TRUE(seg.Contains(0x3FFF));
  EXPECT_FALSE(seg.Contains(0x4000));
  EXPECT_FALSE(seg.Contains(0x1FFF));
}

// --- copy-on-write sharing (src/snap clones) -------------------------------

TEST_F(FrameAllocatorTest, ShareAndReleaseBySharer) {
  uint64_t a = alloc_.AllocFrame(1);
  EXPECT_FALSE(alloc_.IsShared(a));
  alloc_.ShareFrame(a, 2);
  EXPECT_TRUE(alloc_.IsShared(a));
  EXPECT_TRUE(alloc_.OwnedOrSharedBy(a, 1));
  EXPECT_TRUE(alloc_.OwnedOrSharedBy(a, 2));
  EXPECT_FALSE(alloc_.OwnedOrSharedBy(a, 3));
  EXPECT_EQ(alloc_.SharedFrames(2), 1u);

  // The sharer drops its share: frame stays allocated, owned by 1.
  EXPECT_TRUE(alloc_.ReleaseShare(a, 2));
  EXPECT_FALSE(alloc_.IsShared(a));
  EXPECT_EQ(alloc_.OwnerOf(a), 1u);
  EXPECT_EQ(alloc_.SharedFrames(2), 0u);
  // An unshared frame is the caller's to free normally.
  EXPECT_FALSE(alloc_.ReleaseShare(a, 1));
}

TEST_F(FrameAllocatorTest, ReleaseByPrimaryTransfersPrimacy) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  alloc_.ShareFrame(a, 3);
  EXPECT_TRUE(alloc_.ReleaseShare(a, 1));
  EXPECT_EQ(alloc_.OwnerOf(a), 2u) << "first sharer inherits primacy";
  EXPECT_TRUE(alloc_.IsShared(a)) << "sharer 3 still holds a share";
  EXPECT_FALSE(alloc_.OwnedOrSharedBy(a, 1));
}

TEST_F(FrameAllocatorTest, FreeFrameOnSharedTransfersInsteadOfFreeing) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  uint64_t before = alloc_.allocated_frames();
  EXPECT_EQ(alloc_.FreeFrame(a), FreeResult::kOk);
  EXPECT_EQ(alloc_.allocated_frames(), before) << "shared frame must not hit the free list";
  EXPECT_EQ(alloc_.OwnerOf(a), 2u);
}

TEST_F(FrameAllocatorTest, ReclaimOwnerSpareSharedSingletons) {
  // Owner 1 holds two frames; frame `a` is shared with clone 2.
  uint64_t a = alloc_.AllocFrame(1);
  uint64_t b = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  uint64_t freed = alloc_.ReclaimOwner(1);
  EXPECT_EQ(freed, 1u) << "only the unshared frame is freed";
  EXPECT_EQ(alloc_.OwnerOf(a), 2u) << "shared frame transfers to the clone";
  EXPECT_EQ(alloc_.OwnerOf(b), kHostOwner);
  EXPECT_FALSE(alloc_.IsShared(a));
}

TEST_F(FrameAllocatorTest, ReclaimDyingSharerDropsItsShares) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  // Clone 2 dies: its share evaporates; owner 1 keeps the frame.
  uint64_t freed = alloc_.ReclaimOwner(2);
  EXPECT_EQ(freed, 0u);
  EXPECT_EQ(alloc_.OwnerOf(a), 1u);
  EXPECT_FALSE(alloc_.IsShared(a));
  EXPECT_EQ(alloc_.SharedFrames(2), 0u);
}

TEST_F(FrameAllocatorTest, ReclaimSegmentOwnerCarvesSharedPages) {
  PhysSegment seg = alloc_.AllocSegment(8, 9);
  uint64_t shared_pa = seg.base + 3 * kPageSize;
  alloc_.ShareFrame(shared_pa, 2);
  uint64_t freed = alloc_.ReclaimOwner(9);
  EXPECT_EQ(freed, 7u) << "segment sweep skips the page a clone still shares";
  EXPECT_EQ(alloc_.OwnerOf(shared_pa), 2u) << "carved page transfers to the sharer";
  EXPECT_EQ(alloc_.OwnedFrames(9), 0u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 1u);
  // The clone's later death frees the carved page for good.
  EXPECT_EQ(alloc_.ReclaimOwner(2), 1u);
  EXPECT_EQ(alloc_.OwnerOf(shared_pa), kHostOwner);
}

TEST_F(FrameAllocatorTest, OwnedFramesExcludesCarvedSegmentPages) {
  PhysSegment seg = alloc_.AllocSegment(4, 9);
  EXPECT_EQ(alloc_.OwnedFrames(9), 4u);
  alloc_.ShareFrame(seg.base, 2);
  // Primary releases one page to the sharer; the carved page moves owners.
  EXPECT_TRUE(alloc_.ReleaseShare(seg.base, 9));
  EXPECT_EQ(alloc_.OwnerOf(seg.base), 2u);
  EXPECT_EQ(alloc_.OwnedFrames(9), 3u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 1u);
}

TEST(FrameAllocatorCarve, CarvedPageNeverReturnsThroughItsOldSegment) {
  // The carved page's new owner frees it first — by its kill sweep or by
  // FreeFrame — and only then does the segment owner die.
  for (bool by_kill_sweep : {true, false}) {
    SCOPED_TRACE(by_kill_sweep ? "kill sweep" : "FreeFrame");
    PhysMem mem;
    FrameAllocator alloc(mem, 0x1000'0000, 1024);
    PhysSegment seg = alloc.AllocSegment(8, 9);
    uint64_t page0 = seg.base;
    alloc.ShareFrame(page0, 2);
    ASSERT_TRUE(alloc.ReleaseShare(page0, 9));  // carves page 0 out to owner 2
    ASSERT_EQ(alloc.OwnerOf(page0), 2u);
    if (by_kill_sweep) {
      EXPECT_EQ(alloc.ReclaimOwner(2), 1u);
    } else {
      EXPECT_EQ(alloc.FreeFrame(page0), FreeResult::kOk);
    }
    EXPECT_EQ(alloc.allocated_frames(), 7u);
    // On the host free list the page belongs to nobody; above all, the
    // PTP monitor's ownership check must not accept it for the template.
    EXPECT_EQ(alloc.OwnerOf(page0), kHostOwner);
    EXPECT_FALSE(alloc.OwnedOrSharedBy(page0, 9));
    EXPECT_EQ(alloc.OwnedFrames(9), 7u);

    EXPECT_EQ(alloc.ReclaimOwner(9), 7u) << "the segment sweep freed the carved page again";
    EXPECT_EQ(alloc.allocated_frames(), 0u);
    EXPECT_EQ(alloc.double_frees(), 0u);
    std::set<uint64_t> handed_out;
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(handed_out.insert(alloc.AllocFrame(3)).second) << "PA handed out twice";
    }
  }
}

}  // namespace
}  // namespace cki
