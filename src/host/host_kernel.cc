#include "src/host/host_kernel.h"

namespace cki {

uint64_t HostKernel::Dispatch(HypercallOp op, uint64_t a0, uint64_t a1, int vcpu) {
  dispatched_++;
  switch (op) {
    case HypercallOp::kNop:
      return 0;
    case HypercallOp::kPauseVcpu:
      // The hlt replacement: the vCPU blocks until the next wake event.
      paused_[static_cast<size_t>(vcpu)] = true;
      return 0;
    case HypercallOp::kSetTimer: {
      // a0: deadline in ns of pv-clock time (0 cancels nothing here — a
      // fresh one-shot timer is armed per call, TSC-deadline style).
      timers_.push(TimerEvent{.deadline = a0, .vcpu = vcpu});
      return 0;
    }
    case HypercallOp::kSendIpi: {
      // a0: destination vCPU.
      size_t dest = static_cast<size_t>(a0);
      if (dest < pending_ipi_.size()) {
        pending_ipi_[dest]++;
        paused_[dest] = false;  // IPIs wake halted vCPUs
        return 0;
      }
      return ~0ull;
    }
    case HypercallOp::kVirtioKick:
      // Device queues are modeled by VirtNic and VirtioBlkDevice; account only.
      return 0;
    case HypercallOp::kYield:
      return 0;
    case HypercallOp::kLogByte:
      return a1;
    case HypercallOp::kCount:
      break;
  }
  return ~0ull;
}

std::vector<int> HostKernel::ExpireTimers() {
  std::vector<int> fired;
  while (!timers_.empty() && timers_.top().deadline <= ctx_.clock().now()) {
    fired.push_back(timers_.top().vcpu);
    WakeVcpu(timers_.top().vcpu);
    timers_.pop();
  }
  return fired;
}

bool HostKernel::TakeIpi(int vcpu) {
  size_t v = static_cast<size_t>(vcpu);
  if (pending_ipi_[v] == 0) {
    return false;
  }
  pending_ipi_[v]--;
  return true;
}

}  // namespace cki
