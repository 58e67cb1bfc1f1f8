#include "src/host/frame_allocator.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/fault/fault_domain.h"

namespace cki {

FrameAllocator::FrameAllocator(PhysMem& mem, uint64_t base, uint64_t pages)
    : mem_(mem), base_(base), total_pages_(pages), bump_(0) {
  assert((base & (kPageSize - 1)) == 0 && "frame range must be page aligned");
}

FrameAllocator::OwnerNode& FrameAllocator::EnsureNode(uint64_t idx) {
  uint64_t n = idx >> kNodeShift;
  if (n >= nodes_.size()) {
    nodes_.resize(n + 1);
  }
  if (nodes_[n] == nullptr) {
    nodes_[n] = std::make_unique<OwnerNode>();
  }
  return *nodes_[n];
}

uint64_t FrameAllocator::AllocFrame(OwnerId owner) {
  uint64_t pa;
  if (!free_list_.empty()) {
    pa = free_list_.back();
    free_list_.pop_back();
    mem_.ZeroFrame(pa);
  } else {
    if (bump_ >= total_pages_) {
      // Exhaustion is attributed to the requesting owner: the fault bus
      // kills that container (or throws FatalHostError for the host).
      if (bus_ != nullptr) {
        bus_->Raise(FaultReport{FaultKind::kFrameExhausted, owner, total_pages_});
      }
      throw FatalHostError("FrameAllocator: out of physical memory (" +
                           std::to_string(total_pages_) + " frames)");
    }
    pa = base_ + bump_ * kPageSize;
    bump_++;
    mem_.InstallFrame(pa);
  }
  uint64_t idx = FrameIndex(pa);
  EnsureNode(idx).owner[idx & (kNodeFrames - 1)] = owner;
  allocated_++;
  return pa;
}

FreeResult FrameAllocator::FreeFrame(uint64_t pa) {
  uint64_t idx = FrameIndex(pa);
  OwnerNode* node = NodeFor(idx);
  uint64_t off = idx & (kNodeFrames - 1);
  if (node == nullptr || node->owner[off] == kNoOwner) {
    double_frees_++;
    if (bus_ != nullptr) {
      bus_->Note(FaultReport{FaultKind::kDoubleFree, kHostOwner, pa});
    }
    return FreeResult::kDoubleFree;
  }
  if (shares_.count(idx) != 0) {
    // Sharers still map this frame: transfer primacy instead of freeing
    // (the safety net behind ReleaseShare-aware engine free paths).
    TransferPrimary(idx);
    return FreeResult::kOk;
  }
  node->owner[off] = kNoOwner;
  free_list_.push_back(pa);
  allocated_--;
  return FreeResult::kOk;
}

PhysSegment FrameAllocator::AllocSegment(uint64_t pages, OwnerId owner) {
  // Contiguity comes from the bump region; freed singleton frames are not
  // coalesced (mirrors the fragmentation limitation the paper notes).
  if (bump_ + pages > total_pages_) {
    if (bus_ != nullptr) {
      bus_->Raise(FaultReport{FaultKind::kSegmentExhausted, owner, pages});
    }
    throw FatalHostError("FrameAllocator: cannot carve contiguous segment of " +
                         std::to_string(pages) + " pages");
  }
  PhysSegment seg{.base = base_ + bump_ * kPageSize, .pages = pages};
  mem_.InstallRange(seg.base, pages);
  segments_.emplace_back(seg, owner);
  bump_ += pages;
  allocated_ += pages;
  return seg;
}

uint64_t FrameAllocator::ReclaimOwner(OwnerId owner) {
  // Drop the dying holder's *shares* first, so primacy transfers below
  // never hand a frame to the owner being reclaimed.
  std::vector<uint64_t> share_keys;
  for (const auto& [idx, holders] : shares_) {
    (void)holders;
    share_keys.push_back(idx);
  }
  std::sort(share_keys.begin(), share_keys.end());
  for (uint64_t idx : share_keys) {
    auto it = shares_.find(idx);
    auto& holders = it->second;
    holders.erase(std::remove(holders.begin(), holders.end(), owner), holders.end());
    if (holders.empty()) {
      shares_.erase(it);
    }
  }

  // Singleton frames: the direct-indexed table iterates in ascending frame
  // order by construction, so the free list (and thus every later
  // allocation) is deterministic with no sort step. Frames a sibling clone
  // still shares are transferred, not freed.
  uint64_t freed = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    OwnerNode* node = nodes_[n].get();
    if (node == nullptr) {
      continue;
    }
    for (uint64_t off = 0; off < kNodeFrames; ++off) {
      if (node->owner[off] != owner) {
        continue;
      }
      uint64_t idx = (static_cast<uint64_t>(n) << kNodeShift) | off;
      if (shares_.count(idx) != 0) {
        TransferPrimary(idx);
        continue;
      }
      node->owner[off] = kNoOwner;
      free_list_.push_back(base_ + idx * kPageSize);
      freed++;
    }
  }

  // Delegated segments: return every page, drop the ownership record.
  // Pages carved out by an earlier transfer belong to another container
  // now — or were already freed by it — and never return through the
  // segment; pages with live sharers transfer instead of freeing.
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second == owner) {
      const PhysSegment& seg = it->first;
      for (uint64_t i = 0; i < seg.pages; ++i) {
        uint64_t idx = FrameIndex(seg.base + i * kPageSize);
        OwnerNode* node = NodeFor(idx);
        uint64_t off = idx & (kNodeFrames - 1);
        if (node != nullptr && (node->owner[off] != kNoOwner || node->carved[off])) {
          node->carved[off] = false;  // segment record goes away; owner rules now
          continue;
        }
        if (auto sh = shares_.find(idx); sh != shares_.end()) {
          EnsureNode(idx).owner[off] = sh->second.front();
          sh->second.erase(sh->second.begin());
          if (sh->second.empty()) {
            shares_.erase(sh);
          }
          continue;
        }
        free_list_.push_back(base_ + idx * kPageSize);
        freed++;
      }
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
  allocated_ -= freed;
  return freed;
}

uint64_t FrameAllocator::OwnedFrames(OwnerId owner) const {
  uint64_t n = 0;
  for (const auto& node : nodes_) {
    if (node == nullptr) {
      continue;
    }
    for (uint64_t off = 0; off < kNodeFrames; ++off) {
      if (node->owner[off] == owner) {
        n++;
      }
    }
  }
  for (const auto& [seg, seg_owner] : segments_) {
    if (seg_owner == owner) {
      n += seg.pages;
      // Carved pages were transferred to another container; they are
      // counted through their singleton owner slot instead.
      for (uint64_t i = 0; i < seg.pages; ++i) {
        uint64_t idx = FrameIndex(seg.base + i * kPageSize);
        const OwnerNode* node = NodeFor(idx);
        if (node != nullptr && node->carved[idx & (kNodeFrames - 1)]) {
          n--;
        }
      }
    }
  }
  return n;
}

OwnerId FrameAllocator::OwnerOf(uint64_t pa) const {
  uint64_t idx = FrameIndex(pa);
  if (const OwnerNode* node = NodeFor(idx); node != nullptr) {
    uint64_t off = idx & (kNodeFrames - 1);
    if (node->owner[off] != kNoOwner) {
      return node->owner[off];
    }
    if (node->carved[off]) {
      return kHostOwner;  // carved out, then freed: not the segment's
    }
  }
  for (const auto& [seg, seg_owner] : segments_) {
    if (seg.Contains(pa)) {
      return seg_owner;
    }
  }
  return kHostOwner;
}

void FrameAllocator::ShareFrame(uint64_t pa, OwnerId sharer) {
  shares_[FrameIndex(pa)].push_back(sharer);
}

void FrameAllocator::TransferPrimary(uint64_t idx) {
  auto sh = shares_.find(idx);
  assert(sh != shares_.end() && !sh->second.empty());
  OwnerId next = sh->second.front();
  sh->second.erase(sh->second.begin());
  if (sh->second.empty()) {
    shares_.erase(sh);
  }
  OwnerNode& node = EnsureNode(idx);
  uint64_t off = idx & (kNodeFrames - 1);
  if (node.owner[off] == kNoOwner) {
    // The primary held this page through a delegated segment: carve it out
    // so the segment's sweep and leak count skip it from now on.
    node.carved[off] = true;
  }
  node.owner[off] = next;
}

bool FrameAllocator::ReleaseShare(uint64_t pa, OwnerId holder) {
  uint64_t idx = FrameIndex(pa);
  auto sh = shares_.find(idx);
  bool is_primary = OwnerOf(pa) == holder;
  if (sh != shares_.end() && !is_primary) {
    auto& holders = sh->second;
    auto it = std::find(holders.begin(), holders.end(), holder);
    if (it != holders.end()) {
      holders.erase(it);
      if (holders.empty()) {
        shares_.erase(sh);
      }
      return true;
    }
    return false;  // shared, but not by this holder: normal-free path
  }
  if (!is_primary || sh == shares_.end()) {
    return false;
  }
  TransferPrimary(idx);
  return true;
}

bool FrameAllocator::IsShared(uint64_t pa) const {
  return shares_.count(FrameIndex(pa)) != 0;
}

bool FrameAllocator::OwnedOrSharedBy(uint64_t pa, OwnerId holder) const {
  if (OwnerOf(pa) == holder) {
    return true;
  }
  auto sh = shares_.find(FrameIndex(pa));
  if (sh == shares_.end()) {
    return false;
  }
  return std::find(sh->second.begin(), sh->second.end(), holder) != sh->second.end();
}

uint64_t FrameAllocator::SharedFrames(OwnerId holder) const {
  uint64_t n = 0;
  for (const auto& [idx, holders] : shares_) {
    (void)idx;
    n += static_cast<uint64_t>(
        std::count(holders.begin(), holders.end(), holder));
  }
  return n;
}

}  // namespace cki
