#include "src/virt/hvm_engine.h"

#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

HvmEngine::HvmEngine(Machine& machine)
    : TwoStageEngine(machine, /*split_data=*/true),
      ept_(machine.mem(),
           [this](int /*level*/) { return machine_.frames().AllocFrame(kHostOwner); }) {
  AllocPcids(256);
}

void HvmEngine::Boot() {
  if (nested() && !machine_.config().nested_virt_available) {
    // HVM needs VMX/SVM inside the IaaS VM; without it the container
    // simply cannot start (the paper's nested-cloud compatibility gap).
    deployment_unavailable_ = true;
    return;
  }
  machine_.cpu().set_ept(&ept_);
  ContainerEngine::Boot();
}

void HvmEngine::ChargeVmExit() {
  const CostModel& c = ctx_.cost();
  if (nested()) {
    // L2 exit: four L0 world-switch legs plus shadow-VMCS synchronization.
    for (int i = 0; i < 4; ++i) {
      ctx_.Charge(c.l0_world_switch, PathEvent::kL0WorldSwitch);
    }
    ctx_.Charge(c.vmcs_shadow_sync, PathEvent::kNestedVmExit);
  } else {
    ctx_.Charge(c.vmexit_roundtrip_bm, PathEvent::kVmExit);
  }
}

void HvmEngine::HandleEptViolation(uint64_t gpa) {
  TraceScope obs_scope(ctx_, "ept/violation");
  const CostModel& c = ctx_.cost();
  ctx_.RecordEvent(PathEvent::kEptViolation, gpa);
  if (nested()) {
    // The violation exits to L0, which resumes L1; L1's shadow-EPT update
    // (vmread/vmwrite/INVEPT) traps back to L0 several times (sec 7.1:
    // a nested EPT fault costs ~4 nested exits plus emulation work).
    for (int i = 0; i < c.shadow_ept_fault_exits; ++i) {
      ChargeVmExit();
    }
    ctx_.ChargeWork(c.shadow_ept_emulation);
  } else {
    ChargeVmExit();
    ctx_.ChargeWork(c.ept_violation_work);
  }
  if (cold_faults_) {
    // Fresh memory: the host also allocates backing storage (one more
    // management exit), making Table 2's cold faults heavier than the
    // warmed faults of Fig 10a. The allocation is L1-local, so even under
    // nesting this is a bare-metal-priced exit.
    ctx_.Charge(c.vmexit_roundtrip_bm, PathEvent::kVmExit);
    ctx_.ChargeWork(c.hvm_cold_backing_work);
  }
  if (ept_huge_pages_) {
    // Back the whole 2 MiB region at once: one violation per 512 pages.
    uint64_t gpa_base = gpa & ~(kHugePageSize - 1);
    PhysSegment seg = machine_.frames().AllocSegment(kHugePageSize / kPageSize, id_);
    for (uint64_t i = 0; i < kHugePageSize / kPageSize; ++i) {
      uint64_t gfn = (gpa_base >> kPageShift) + i;
      ArenaFor(gfn).Bind(gfn, seg.base + i * kPageSize);
    }
    ept_.Map(gpa_base, seg.base, PageSize::k2M);
  } else {
    Backing(gpa, /*create=*/true);
  }
}

bool HvmEngine::HandleUserFault(const Fault& f, uint64_t va, bool write) {
  // A fresh page typically takes a guest #PF and then an EPT violation on
  // the retry.
  if (f.type == FaultType::kEptViolation) {
    HandleEptViolation(f.va);
    return true;
  }
  // Guest-internal fault: delivered and handled entirely in the L2 guest
  // kernel (slightly heavier than native, Fig 10a).
  const CostModel& c = ctx_.cost();
  return DeliverNativeFault(
      f, va, write, c.hvm_guest_handler_extra + (nested() ? c.hvm_nested_guest_handler_extra : 0));
}

uint64_t HvmEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)a0;
  (void)a1;
  TraceScope obs_scope(ctx_, "hypercall");
  ctx_.RecordEvent(PathEvent::kHypercall);
  ChargeVmExit();
  ctx_.ChargeWork(ctx_.cost().hypercall_dispatch);
  (void)op;
  return 0;
}

SimNanos HvmEngine::KickCost() const {
  const CostModel& c = ctx_.cost();
  SimNanos exit_cost = nested() ? c.NestedExitRoundtrip() : c.vmexit_roundtrip_bm;
  return exit_cost + c.virtio_kick_mmio;
}

SimNanos HvmEngine::DeviceInterruptCost() const {
  const CostModel& c = ctx_.cost();
  // Bare metal: hardware assists (APICv-style injection) keep delivery to
  // one exit plus the injection. Nested: the injection and the guest's EOI
  // write are both L0-mediated cycles.
  if (nested()) {
    return 2 * c.NestedExitRoundtrip() + c.virq_inject;
  }
  return c.vmexit_roundtrip_bm + c.virq_inject;
}

SimNanos HvmEngine::VirtioEmulationExtra() const {
  // Bare metal: vhost + EVENT_IDX suppression elide the frontend's MMIO
  // register traffic. Nested: ISR reads, notification toggles and ring
  // index accesses each bounce through L0.
  const CostModel& c = ctx_.cost();
  if (!nested()) {
    return 0;
  }
  return 4 * (c.NestedExitRoundtrip() + c.virtio_kick_mmio);
}

bool HvmEngine::StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
  (void)level;
  (void)va;
  // With EPT the guest manages its own tables: a direct store, no exit.
  ctx_.Charge(ctx_.cost().pte_write_native, PathEvent::kPteUpdate);
  machine_.mem().WriteU64(Backing(pte_pa, /*create=*/false), value);
  return true;
}

void HvmEngine::SnapCaptureConfig(SnapWriter& w) const {
  w.PutBool(cold_faults_);
  w.PutBool(ept_huge_pages_);
}

void HvmEngine::SnapApplyConfig(SnapReader& r) {
  cold_faults_ = r.GetBool();
  ept_huge_pages_ = r.GetBool();
}

void HvmEngine::OnBind(uint64_t gpa, uint64_t hpa) { ept_.Map(gpa, hpa, PageSize::k4K); }

void HvmEngine::OnUnbind(uint64_t gpa) { ept_.Unmap(gpa); }

}  // namespace cki
