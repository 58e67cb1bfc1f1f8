// The seam between the (shared) model guest kernel and the container engine
// it runs under. Every privileged effect of the guest kernel — page-table
// stores, physical page allocation, host invocations, address-space loads —
// flows through this interface, and each container design (RunC, HVM, PVM,
// CKI) implements it with its own mechanism and cost:
//
//               StorePte            LoadAddressSpace      Hypercall
//   RunC/HVM    direct store        mov cr3               n/a / vmcall exit
//   PVM         VM exit + shadow-   hypercall + shadow    exit round trip
//               PTE emulation       root switch
//   CKI         KSM call checked    KSM call validating   switcher (PKS +
//               by the PTP monitor  the declared root     CR3, no L0)
//
// Where the page hooks (ReadPte, Alloc/FreeDataPage, Alloc/FreePtp) come
// from:
//   RunC, gVisor, LibOS  ContainerEngine's direct-frame defaults: host
//                        frames go straight into guest PTEs (StorePte and
//                        InvalidatePage too; LibOS keeps its own
//                        InvalidatePage)
//   HVM, PVM             TwoStageEngine: gPAs from bump arenas, bound to
//                        host frames on first use (src/runtime)
//   CKI                  its delegated segment, PTPs declared to the KSM
//                        (ReadPte is the default)
//
// The control flow around each mechanism lives once in ContainerEngine
// (src/runtime): the user-touch loop, the fault-domain wrappers, and
// native defaults for the fault step, the syscall path and the CR3 load.
// Each design overrides only what differs:
//               HandleUserFault        DoUserSyscall        LoadAddressSpace
//   RunC        native delivery        native               native mov cr3
//   LibOS       native delivery        function call        native (16 PCIDs)
//   gVisor      native + Sentry extra  Systrap redirection  native, inside a
//                                                           host syscall
//   HVM         native + L2 extra;     native               native (no exit
//               EPT violation exit                          under EPT)
//   PVM         stale-shadow fill or   redirected to the    hypercall, then
//               redirected exception   guest kernel         native load of the
//                                                           shadow root
//   CKI         PKS-trap kill, fused   OPT2/OPT3 ablation   KSM-validated root
//               KSM iret, OPT2 CR3     switches
#ifndef SRC_GUEST_ENGINE_PORT_H_
#define SRC_GUEST_ENGINE_PORT_H_

#include <cstdint>
#include <string_view>

namespace cki {

// Host services reachable via hypercall (the paravirtual interface).
enum class HypercallOp : uint8_t {
  kNop = 0,        // empty hypercall (microbenchmarks)
  kPauseVcpu,      // hlt replacement
  kSetTimer,       // wrmsr(TSC_DEADLINE) replacement
  kSendIpi,        // wrmsr(ICR) replacement
  kVirtioKick,     // queue notification (MMIO replacement in CKI)
  kYield,
  kLogByte,        // debug console
  kCount,
};

std::string_view HypercallOpName(HypercallOp op);

// Returned by the page-allocation hooks when the engine's memory budget is
// exhausted: the guest kernel propagates ENOMEM instead of the machine
// aborting. 0 cannot serve as the sentinel — it is a valid guest PA.
inline constexpr uint64_t kNoPage = ~0ull;

class EnginePort {
 public:
  virtual ~EnginePort() = default;

  // --- page tables -----------------------------------------------------
  // Reads/stores a guest page-table entry. Addresses are in the guest's
  // physical space (hPA for RunC/CKI, gPA for HVM/PVM).
  virtual uint64_t ReadPte(uint64_t pte_pa) = 0;
  virtual bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) = 0;

  // Brackets a bulk page-table operation (fork, exec, exit, munmap of a
  // range). Engines may batch their mechanism: PVM amortizes VM exits over
  // the batch, CKI holds the KSM gate open across the stores.
  virtual void BeginPteBatch() {}
  virtual void EndPteBatch() {}

  // --- physical memory ---------------------------------------------------
  // Allocates/frees one zeroed data page, returning its guest-visible PA.
  virtual uint64_t AllocDataPage() = 0;
  virtual void FreeDataPage(uint64_t pa) = 0;
  // Allocates a page-table page. Under CKI this *declares* the PTP to the
  // monitor (type + level recorded, PTE re-keyed to the PTP domain).
  virtual uint64_t AllocPtp(int level) = 0;
  // Releases a page-table page on address-space teardown (undeclared
  // under CKI after the monitor checks it is no longer referenced).
  virtual void FreePtp(uint64_t pa, int level) = 0;

  // --- control ---------------------------------------------------------
  // Invokes host-kernel functionality. Returns an op-defined value.
  virtual uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) = 0;

  // Switches to another process's address space (the guest's CR3 load).
  virtual void LoadAddressSpace(uint64_t root_pa, uint16_t asid) = 0;

  // Flushes one page translation after an unmap/protect (invlpg — directly
  // executable in every design but LibOS, whose libOS runs in user mode;
  // PCID confines it to the container).
  virtual void InvalidatePage(uint64_t va) = 0;

  // --- copy-on-write clones (src/snap) ---------------------------------
  // True when the frame at guest-visible `pa` is shared with another
  // container (a CoW clone sibling). The kernel's CoW fault path must
  // then copy even if its own refcount says "sole owner".
  virtual bool FrameShared(uint64_t pa) const {
    (void)pa;
    return false;
  }

  // Shootdown after breaking cross-container sharing at `va`: flushes the
  // page across the whole container's PCID range (engines charge the IPI
  // cost). Defaults to a plain single-PCID invalidation.
  virtual void CowBreakShootdown(uint64_t va) { InvalidatePage(va); }
};

}  // namespace cki

#endif  // SRC_GUEST_ENGINE_PORT_H_
