// HVM: hardware-assisted virtualization (the Kata Containers baseline).
//
// The guest runs in VMX non-root mode with two-stage translation: guest
// page tables map gVA -> gPA, the host's EPT maps gPA -> hPA. Syscalls and
// guest page faults stay inside the guest; EPT violations and hypercalls
// cause VM exits. Under nested deployment every VM exit of the (L2)
// container bounces through the L0 hypervisor, and EPT-violation handling
// requires shadow-EPT emulation by L0 (sections 2.4.1, 7.1).
//
// Guest-physical memory comes from TwoStageEngine's two arenas: RAM and
// page tables from gfn 1, data pages from gPA 1 TiB. This engine keeps the
// EPT in step with every binding.
#ifndef SRC_VIRT_HVM_ENGINE_H_
#define SRC_VIRT_HVM_ENGINE_H_

#include "src/hw/ept.h"
#include "src/runtime/two_stage_engine.h"

namespace cki {

class HvmEngine : public TwoStageEngine {
 public:
  explicit HvmEngine(Machine& machine);

  std::string_view name() const override { return nested() ? "HVM-NST" : "HVM-BM"; }
  RuntimeKind kind() const override { return RuntimeKind::kHvm; }

  void Boot() override;

  // --- snapshot hooks --------------------------------------------------
  void SnapCaptureConfig(SnapWriter& w) const override;
  void SnapApplyConfig(SnapReader& r) override;

  // True when the deployment is impossible (nested container requested but
  // the IaaS VM has no nested virtualization). Boot() then does nothing.
  bool deployment_unavailable() const { return deployment_unavailable_; }

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;
  SimNanos VirtioEmulationExtra() const override;

  // Table-2 style "cold" faults: fresh memory whose host backing must also
  // be allocated (one extra management exit per fault).
  void set_cold_faults(bool cold) { cold_faults_ = cold; }
  // Backs EPT mappings with 2 MiB pages (the "2M" configurations).
  void set_ept_huge_pages(bool huge) { ept_huge_pages_ = huge; }

  const Ept& ept() const { return ept_; }

  // --- EnginePort ------------------------------------------------------
  // Syscalls and guest CR3 loads stay inside the guest: ContainerEngine's
  // native defaults.
  bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) override;
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;

 protected:
  // Native delivery plus the L2 handler surcharge; EPT violations exit.
  bool HandleUserFault(const Fault& f, uint64_t va, bool write) override;

  // Every gPA binding is mirrored into the EPT (the host-owned EPT table
  // pages stay with the host allocator on a kill).
  void OnBind(uint64_t gpa, uint64_t hpa) override;
  void OnUnbind(uint64_t gpa) override;

 private:
  // One VM exit round trip, bare-metal or nested as configured.
  void ChargeVmExit();
  // Handles an EPT violation at guest-physical address `gpa`.
  void HandleEptViolation(uint64_t gpa);

  Ept ept_;
  bool cold_faults_ = false;
  bool ept_huge_pages_ = false;
  bool deployment_unavailable_ = false;
};

}  // namespace cki

#endif  // SRC_VIRT_HVM_ENGINE_H_
