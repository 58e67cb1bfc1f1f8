#include "src/runtime/two_stage_engine.h"

namespace cki {

uint64_t TwoStageEngine::BindFresh(uint64_t gpa, bool create) {
  if (!create) {
    machine_.faults().Raise(FaultReport{FaultKind::kProtectionViolation, id_, gpa});
  }
  ChargeFreshBacking();
  uint64_t gfn = gpa >> kPageShift;
  uint64_t hpa = machine_.frames().AllocFrame(id_);
  ArenaFor(gfn).Bind(gfn, hpa);
  OnBind(gfn << kPageShift, hpa);
  return hpa | (gpa & (kPageSize - 1));
}

uint64_t TwoStageEngine::HostFrameFor(uint64_t pa) const {
  uint64_t gfn = pa >> kPageShift;
  uint64_t hpa = ArenaFor(gfn).Backing(gfn);
  if (hpa == 0) {
    return kNoPage;  // lazily backed gPA: all-zero by construction
  }
  return hpa | (pa & (kPageSize - 1));
}

uint64_t TwoStageEngine::AdoptSharedFrame(uint64_t host_pa) {
  FrameAllocator& frames = machine_.frames();
  frames.ShareFrame(host_pa, id_);
  uint64_t gpa = data_->Alloc();
  uint64_t gfn = gpa >> kPageShift;
  // A recycled gPA may still hold the private frame FreeDataPage kept for
  // warm reuse. Rebinding would leave that frame owned but unmapped until
  // the kill sweep, so release it first. Only a singleton frame: a page of
  // an HVM 2 MiB backing segment goes back with its segment.
  if (uint64_t old = data_->Backing(gfn); old != 0 && frames.OwnsSingleton(old, id_)) {
    frames.FreeFrame(old);
  }
  data_->Bind(gfn, host_pa);
  // Bind eagerly: Backing() short-circuits on an existing entry, so no
  // later miss would install this mapping.
  OnBind(gpa, host_pa);
  return gpa;
}

uint64_t TwoStageEngine::ReadPte(uint64_t pte_pa) {
  return machine_.mem().ReadU64(Backing(pte_pa, /*create=*/false));
}

void TwoStageEngine::FreeDataPage(uint64_t pa) {
  if (ReleaseSharedDataFrame(pa)) {
    // The shared host frame stays with its remaining holders; the gPA is
    // ours alone, so unbind it (backing re-materializes lazily on reuse).
    data_->Unbind(pa >> kPageShift);
    OnUnbind(pa & ~(kPageSize - 1));
  }
  // A private page keeps its backing: the next allocation reuses it warm.
  data_->Free(pa);
}

uint64_t TwoStageEngine::AllocPtp(int level) {
  (void)level;
  uint64_t gpa = ram_.Alloc();
  // Page-table pages are written immediately by the guest kernel, so their
  // backing exists by construction.
  Backing(gpa, /*create=*/true);
  return gpa;
}

void TwoStageEngine::FreePtp(uint64_t pa, int level) {
  (void)level;
  ram_.Free(pa);
}

void TwoStageEngine::OnKill() {
  ram_.Clear();
  split_data_.Clear();
}

}  // namespace cki
