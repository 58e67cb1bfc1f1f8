// Mechanism-level tests of the HVM and PVM engines: lazy EPT backing,
// shadow-table consistency, batching, cold-fault accounting, the CKI
// engine's delegated-segment memory management, and the clean-hit touch
// fast path of every design.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cki/cki_engine.h"
#include "src/fault/fault_injector.h"
#include "src/runtime/runtime.h"
#include "src/virt/hvm_engine.h"
#include "src/virt/pvm_engine.h"

namespace cki {
namespace {

// --- HVM --------------------------------------------------------------------

TEST(HvmBehavior, DataPagesBackLazilyOnFirstTouch) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  auto& engine = static_cast<HvmEngine&>(bed.engine());
  uint64_t mapped_before = engine.ept().mapped_pages();
  uint64_t base = bed.engine().MmapAnon(2 * kPageSize, false);
  // mmap alone maps nothing in the EPT.
  EXPECT_EQ(engine.ept().mapped_pages(), mapped_before);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 1u);
  EXPECT_GT(engine.ept().mapped_pages(), mapped_before);
  // Second touch of the same page: no further violation.
  before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 0u);
}

TEST(HvmBehavior, RecycledGuestPagesKeepBacking) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kMunmap, .arg0 = base, .arg1 = kPageSize});
  // A new mapping reuses the freed gPA: warm EPT, no violation.
  uint64_t base2 = bed.engine().MmapAnon(kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base2, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 0u);
}

TEST(HvmBehavior, HugeEptBackingAmortizesViolations) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  auto& engine = static_cast<HvmEngine&>(bed.engine());
  engine.set_ept_huge_pages(true);
  constexpr int kPages = 64;
  uint64_t base = bed.engine().MmapAnon(kPages * kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  for (int i = 0; i < kPages; ++i) {
    ASSERT_EQ(bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true),
              TouchResult::kOk);
  }
  // 64 fresh 4K pages inside one (or two) 2 MiB regions: <= 2 violations.
  EXPECT_LE(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 2u);
}

TEST(HvmBehavior, NestedHypercallCostsL0Intervention) {
  Testbed bm(RuntimeKind::kHvm, Deployment::kBareMetal);
  Testbed nst(RuntimeKind::kHvm, Deployment::kNested);
  SimNanos bm_cost = bm.Measure([&] { bm.engine().GuestHypercall(HypercallOp::kNop); });
  SimNanos nst_cost = nst.Measure([&] { nst.engine().GuestHypercall(HypercallOp::kNop); });
  EXPECT_GT(nst_cost, 5 * bm_cost);
}

// --- PVM --------------------------------------------------------------------

TEST(PvmBehavior, HardwareRunsOnShadowTables) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  uint64_t fills_before = engine.shadow_fills();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_GT(engine.shadow_fills(), fills_before) << "fault must sync a shadow leaf";
  // The hardware CR3 points at a host-owned root, not the guest's table.
  uint64_t hw_root = Cr3Root(bed.machine().cpu().cr3());
  EXPECT_NE(hw_root, bed.engine().kernel().current().pt_root);
  EXPECT_EQ(bed.machine().frames().OwnerOf(hw_root), kHostOwner);
}

TEST(PvmBehavior, GuestUnmapInvalidatesShadow) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kMunmap, .arg0 = base, .arg1 = kPageSize});
  EXPECT_EQ(bed.engine().UserTouch(base, false), TouchResult::kSegv)
      << "stale shadow entries must not survive a guest unmap";
}

TEST(PvmBehavior, PteUpdatesCountShadowEmulations) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, true);
  uint64_t emul_before = engine.spt_emulations();
  bed.engine().UserSyscall(SyscallRequest{
      .no = Sys::kMprotect, .arg0 = base, .arg1 = kPageSize, .arg2 = kProtRead});
  EXPECT_GT(engine.spt_emulations(), emul_before);
}

TEST(PvmBehavior, BatchedUpdatesAmortizeExits) {
  // fork() clones dozens of PTEs; batching must keep the exit count far
  // below one per PTE.
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(40 * kPageSize, true);
  (void)base;
  auto before = bed.ctx().trace().Snapshot();
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  uint64_t exits = CountDelta(before, bed.ctx().trace(), PathEvent::kVmExit);
  uint64_t updates = CountDelta(before, bed.ctx().trace(), PathEvent::kPteUpdate);
  EXPECT_GT(updates, 40u);
  EXPECT_LT(exits, updates / 4) << "fork PTE updates must batch";
}

TEST(PvmBehavior, ForkedChildFaultsRefillShadowLazily) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  GuestKernel& kernel = bed.engine().kernel();
  uint64_t base = bed.engine().MmapAnon(4 * kPageSize, true);
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  kernel.SwitchTo(static_cast<int>(r.value));
  uint64_t fills_before = engine.shadow_fills();
  // Child reads inherited memory: the guest PTE exists (read-only CoW),
  // only the child's shadow needs filling.
  ASSERT_EQ(bed.engine().UserTouch(base, false), TouchResult::kOk);
  EXPECT_GT(engine.shadow_fills(), fills_before);
}

// --- CKI --------------------------------------------------------------------

TEST(CkiBehavior, GuestMemoryComesFromDelegatedSegment) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  WalkResult walk =
      bed.engine().kernel().editor().Walk(bed.engine().kernel().current().pt_root, base);
  ASSERT_TRUE(walk.fault.ok());
  // The PTE holds a host-physical address inside the delegated segment —
  // no gPA indirection exists at all.
  EXPECT_TRUE(engine.segment().Contains(PteAddr(walk.leaf_pte)));
  EXPECT_EQ(bed.machine().frames().OwnerOf(PteAddr(walk.leaf_pte)), engine.id());
}

TEST(CkiBehavior, EveryPteStoreIsMonitorChecked) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t checked_before = engine.ksm().monitor().checked_stores();
  uint64_t base = bed.engine().MmapAnon(4 * kPageSize, false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true),
              TouchResult::kOk);
  }
  EXPECT_GE(engine.ksm().monitor().checked_stores() - checked_before, 4u);
  EXPECT_EQ(engine.ksm().monitor().rejected_stores(), 0u);
}

TEST(CkiBehavior, HardwareCr3PointsAtPerVcpuCopy) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t guest_root = bed.engine().kernel().current().pt_root;
  uint64_t hw_root = Cr3Root(bed.machine().cpu().cr3());
  EXPECT_NE(hw_root, guest_root);
  EXPECT_EQ(hw_root, engine.ksm().TopLevelCopy(guest_root, 0));
}

TEST(CkiBehavior, ProcessExitReturnsPagesToSegmentPool) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  GuestKernel& kernel = bed.engine().kernel();
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t declared_before = engine.ksm().monitor().declared_ptps();
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  kernel.SwitchTo(static_cast<int>(r.value));
  uint64_t child_heap = bed.engine().MmapAnon(8 * kPageSize, true);
  (void)child_heap;
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kExit});
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kWaitpid, .arg0 = 0});
  // The child's PTPs were undeclared on teardown.
  EXPECT_EQ(engine.ksm().monitor().declared_ptps(), declared_before);
}

TEST(CkiBehavior, AblationsOnlyAffectLatencyNotSemantics) {
  for (RuntimeKind kind : {RuntimeKind::kCkiNoOpt2, RuntimeKind::kCkiNoOpt3}) {
    Testbed bed(kind, Deployment::kBareMetal);
    uint64_t base = bed.engine().MmapAnon(kPageSize, false);
    EXPECT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
    EXPECT_TRUE(bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid}).ok());
  }
}

// --- cross-engine property: nested deployment never changes results ------------

class NestedEquivalenceTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(NestedEquivalenceTest, FunctionalResultsMatchAcrossDeployments) {
  Testbed bm(GetParam(), Deployment::kBareMetal);
  Testbed nst(GetParam(), Deployment::kNested);
  for (Testbed* bed : {&bm, &nst}) {
    uint64_t base = bed->engine().MmapAnon(2 * kPageSize, false);
    EXPECT_EQ(bed->engine().UserTouch(base, true), TouchResult::kOk);
    SyscallResult fd = bed->engine().UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 9});
    EXPECT_TRUE(fd.ok());
    EXPECT_EQ(bed->engine()
                  .UserSyscall(SyscallRequest{
                      .no = Sys::kWrite, .arg0 = static_cast<uint64_t>(fd.value), .arg1 = 100})
                  .value,
              100);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, NestedEquivalenceTest,
                         ::testing::Values(RuntimeKind::kHvm, RuntimeKind::kPvm,
                                           RuntimeKind::kCki),
                         [](const ::testing::TestParamInfo<RuntimeKind>& param_info) {
                           return std::string(RuntimeKindName(param_info.param));
                         });

// --- every design: the clean-hit fast path equals the full path -------------

// Touches, syscalls and address-space switches that mix TLB hits, misses,
// demand faults, CoW breaks and SIGSEGVs. Returns every touch's result.
std::vector<TouchResult> DriveTouchSequence(ContainerEngine& e) {
  constexpr int kPages = 8;
  std::vector<TouchResult> results;
  auto pass = [&](uint64_t base, bool write) {
    for (int i = 0; i < kPages; ++i) {
      results.push_back(e.UserTouch(base + static_cast<uint64_t>(i) * kPageSize, write));
    }
  };
  uint64_t base = e.MmapAnon(kPages * kPageSize, /*populate=*/false);
  for (bool write : {false, false, true, true, false}) {
    pass(base, write);
  }
  SyscallResult child = e.UserSyscall(SyscallRequest{.no = Sys::kFork});  // LibOS: EINVAL
  pass(base, /*write=*/true);  // CoW breaks in the parent
  pass(base, /*write=*/false);
  if (child.ok()) {
    int parent = e.kernel().current().pid;
    e.kernel().SwitchTo(static_cast<int>(child.value));
    pass(base, /*write=*/false);
    pass(base, /*write=*/true);
    e.kernel().SwitchTo(parent);
  }
  e.UserSyscall(SyscallRequest{.no = Sys::kMunmap, .arg0 = base, .arg1 = kPages / 2 * kPageSize});
  pass(base, /*write=*/false);  // first half now unmapped: SIGSEGV
  pass(base + (1ull << 30), /*write=*/true);
  return results;
}

TEST(TouchFastPath, MatchesTheFullPathOnEveryDesign) {
  for (RuntimeKind kind :
       {RuntimeKind::kRunc, RuntimeKind::kHvm, RuntimeKind::kPvm, RuntimeKind::kCki,
        RuntimeKind::kCkiNoOpt2, RuntimeKind::kCkiNoOpt3, RuntimeKind::kGvisor,
        RuntimeKind::kLibOs}) {
    for (Deployment deployment : {Deployment::kBareMetal, Deployment::kNested}) {
      SCOPED_TRACE(std::string(RuntimeKindName(kind)) +
                   (deployment == Deployment::kNested ? " nested" : " bare-metal"));
      Testbed fast(kind, deployment);
      Testbed full(kind, deployment);
      // Every rate 0: a live injector sends each touch down the full path
      // and draws nothing.
      FaultInjector injector(InjectorConfig{});
      full.engine().set_injector(&injector);

      std::vector<TouchResult> fast_results = DriveTouchSequence(fast.engine());
      std::vector<TouchResult> full_results = DriveTouchSequence(full.engine());
      EXPECT_EQ(fast_results, full_results);
      EXPECT_EQ(fast.ctx().clock().now(), full.ctx().clock().now());
      EXPECT_EQ(fast.ctx().trace().Snapshot(), full.ctx().trace().Snapshot());
      const Tlb& fast_tlb = fast.machine().cpu().tlb();
      const Tlb& full_tlb = full.machine().cpu().tlb();
      EXPECT_GT(fast_tlb.hits(), 0u);
      EXPECT_EQ(fast_tlb.hits(), full_tlb.hits());
      EXPECT_EQ(fast_tlb.misses(), full_tlb.misses());
      EXPECT_EQ(injector.draws(), 0u);
    }
  }
}

}  // namespace
}  // namespace cki
