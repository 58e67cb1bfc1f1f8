#include "src/blkfs/blk_frontend.h"

#include "src/fault/fault_injector.h"

namespace cki {

std::vector<BlkReadOutcome> BlkFrontend::ReadBlocks(const uint64_t* blocks, size_t n) {
  std::vector<BlkReadOutcome> out;
  out.reserve(n);
  bool submitted = false;
  uint64_t batch_grants = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t block = blocks[i];
    BlkReadOutcome o;
    o.block = block;
    BlkResolution res = store_.Resolve(view_, block);
    ctx_.ChargeWork(ctx_.cost().blkfs_layer_resolve * res.chain_steps);
    o.tag = res.tag;
    o.from_delta = res.from_delta;
    if (injector_ != nullptr && injector_->InjectBlkfsIoError()) {
      engine_.machine().faults().Note({FaultKind::kBlkfsIoError, engine_.id(), block});
      o.io_error = true;
      io_errors_++;
      out.push_back(o);
      continue;
    }
    if (!res.from_delta && res.base_present) {
      // Base block: materialize once machine-wide, then every view maps
      // the same host frame. A fresh frame still costs the device read
      // that fills it; a seasoned one is a pure grant.
      bool fresh = false;
      o.shared_host_pa = store_.MaterializeBase(view_, block, &fresh);
      if (fresh) {
        device_.SubmitRead(block * kBlkSectorsPerBlock, kBlkSectorsPerBlock);
        submitted = true;
      } else {
        batch_grants++;
      }
    } else {
      // Delta blocks and holes past the base extent live in the
      // container's own pages: a plain device read.
      device_.SubmitRead(block * kBlkSectorsPerBlock, kBlkSectorsPerBlock);
      submitted = true;
    }
    out.push_back(o);
  }
  if (submitted) {
    device_.Poll();
  }
  if (batch_grants > 0) {
    // One doorbell-priced grant hypercall for the whole batch, plus the
    // per-block share-map bookkeeping (no storage latency: the frames
    // are already resident).
    ctx_.Charge(engine_.KickCost(), PathEvent::kVirtioKick);
    ctx_.ChargeWork(ctx_.cost().blkfs_base_share_map * batch_grants);
    grants_ += batch_grants;
  }
  return out;
}

void BlkFrontend::WriteBlock(uint64_t block, uint64_t tag) {
  store_.WriteDelta(view_, block, tag);
  device_.WriteSectorTag(block * kBlkSectorsPerBlock, tag);
  device_.SubmitWrite(block * kBlkSectorsPerBlock, kBlkSectorsPerBlock);
}

}  // namespace cki
