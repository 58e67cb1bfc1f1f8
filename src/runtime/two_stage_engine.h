// The two-stage guest-physical memory layer (DESIGN.md §14): how HVM and
// PVM back guest-physical memory. Both keep the gVA -> gPA -> hPA split
// (EPT or shadow paging, sections 2.4 and 7.1): the guest kernel fills its
// page tables with gPAs handed out by bump arenas, and the engine binds each
// gPA to a host frame on first use. Everything about that binding lives
// here once; the engines keep only what differs (HVM: EPT map/unmap and
// 2 MiB backing; PVM: the cold-backing charge and shadow tables).
//
// RunC, gVisor, LibOS and CKI put host frames straight into guest PTEs and
// take ContainerEngine's direct-frame defaults instead.
#ifndef SRC_RUNTIME_TWO_STAGE_ENGINE_H_
#define SRC_RUNTIME_TWO_STAGE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/runtime/engine.h"

namespace cki {

// One gPA arena: a bump pointer from a base gfn, a LIFO free list and the
// gPA -> hPA backing table. gfns are handed out densely from the base, so
// the table is a vector indexed by (gfn - base): a lookup is one bounds
// check plus one load, and no hash-table iteration order exists for any
// sweep to depend on. Host frame addresses are never 0 (the frame range
// starts high), so 0 doubles as the "absent" sentinel.
class GpaArena {
 public:
  explicit GpaArena(uint64_t base_gfn) : base_(base_gfn), next_(base_gfn) {}

  uint64_t base_gfn() const { return base_; }

  // The most recently freed gPA, else the next fresh one. Reuse order is
  // simulated behaviour: a recycled gPA that kept its backing skips the
  // EPT violation or cold-backing charge a fresh one pays.
  uint64_t Alloc() {
    if (!free_.empty()) {
      uint64_t gpa = free_.back();
      free_.pop_back();
      return gpa;
    }
    return (next_++) * kPageSize;
  }
  void Free(uint64_t gpa) { free_.push_back(gpa); }

  // Host frame backing `gfn`; 0 when absent.
  uint64_t Backing(uint64_t gfn) const {
    uint64_t idx = gfn - base_;
    return idx < slots_.size() ? slots_[idx] : 0;
  }

  void Bind(uint64_t gfn, uint64_t hpa) {
    uint64_t idx = gfn - base_;
    if (idx >= slots_.size()) {
      uint64_t grown = slots_.size() * 2;
      slots_.resize(idx + 1 > grown ? idx + 1 : grown, 0);
    }
    slots_[idx] = hpa;
  }

  void Unbind(uint64_t gfn) {
    uint64_t idx = gfn - base_;
    if (idx < slots_.size()) {
      slots_[idx] = 0;
    }
  }

  // Drops every binding and the free list (the kill path). The bump
  // pointer stays: a dead engine never hands out a gPA again.
  void Clear() {
    slots_.clear();
    free_.clear();
  }

 private:
  uint64_t base_;
  uint64_t next_;
  std::vector<uint64_t> free_;
  std::vector<uint64_t> slots_;
};

class TwoStageEngine : public ContainerEngine {
 public:
  // --- snapshot / clone hooks (gPA -> hPA through the arenas) ------------
  uint64_t HostFrameFor(uint64_t pa) const override;
  uint64_t EnsureHostFrame(uint64_t pa) override { return Backing(pa, /*create=*/true); }
  // Mints a data gPA bound to the shared host frame. A recycled gPA's
  // retained private frame is released first (DESIGN.md §10).
  uint64_t AdoptSharedFrame(uint64_t host_pa) override;

  // --- EnginePort ------------------------------------------------------
  uint64_t ReadPte(uint64_t pte_pa) override;
  // Backing is left lazy: the first use of a fresh data gPA binds it.
  uint64_t AllocDataPage() override { return data_->Alloc(); }
  void FreeDataPage(uint64_t pa) override;
  uint64_t AllocPtp(int level) override;
  void FreePtp(uint64_t pa, int level) override;

 protected:
  // `split_data`: data pages come from their own arena at gPA 1 TiB (HVM,
  // so 2 MiB EPT backing never covers page-table pages). Otherwise one
  // arena serves page tables and data in one allocation order (PVM).
  TwoStageEngine(Machine& machine, bool split_data)
      : ContainerEngine(machine), data_(split_data ? &split_data_ : &ram_) {}

  // Host address backing `gpa`, page offset kept. A miss binds a fresh
  // host frame when `create` is set; without it the guest referenced a gPA
  // the host never assigned — a protection violation that kills this
  // container, not the machine. The hit path is inline and non-virtual.
  uint64_t Backing(uint64_t gpa, bool create) {
    uint64_t gfn = gpa >> kPageShift;
    if (uint64_t hpa = ArenaFor(gfn).Backing(gfn); hpa != 0) {
      return hpa | (gpa & (kPageSize - 1));
    }
    return BindFresh(gpa, create);
  }

  GpaArena& ArenaFor(uint64_t gfn) { return gfn >= data_->base_gfn() ? *data_ : ram_; }
  const GpaArena& ArenaFor(uint64_t gfn) const {
    return gfn >= data_->base_gfn() ? *data_ : ram_;
  }

  // Drops every gPA binding and free list before the owner sweep reclaims
  // the backing frames. Overrides must call it.
  void OnKill() override;

  // Miss-path hooks; a backing hit never reaches them.
  // Runs before a fresh host frame is allocated for a gPA.
  virtual void ChargeFreshBacking() {}
  // Host frame `hpa` is now bound to the page at `gpa`.
  virtual void OnBind(uint64_t gpa, uint64_t hpa) {
    (void)gpa;
    (void)hpa;
  }
  // A shared host frame was unbound from the page at `gpa`.
  virtual void OnUnbind(uint64_t gpa) { (void)gpa; }

 private:
  uint64_t BindFresh(uint64_t gpa, bool create);

  // gPA page 0 is never handed out: the first allocation is the init
  // PML4, and pt_root == 0 is the guest kernel's "no address space"
  // sentinel.
  static constexpr uint64_t kRamBaseGfn = 1;
  static constexpr uint64_t kDataBaseGfn = (1ull << 40) >> kPageShift;

  GpaArena ram_{kRamBaseGfn};           // page tables (and data when unsplit)
  GpaArena split_data_{kDataBaseGfn};   // data pages of a split engine
  GpaArena* const data_;                // where data pages come from
};

}  // namespace cki

#endif  // SRC_RUNTIME_TWO_STAGE_ENGINE_H_
