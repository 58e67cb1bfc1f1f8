#include "src/runtime/native_engine.h"

namespace cki {

NativeEngine::NativeEngine(Machine& machine) : ContainerEngine(machine) { AllocPcids(256); }

SimNanos NativeEngine::KickCost() const {
  // The "device" is the host's own network stack: a function call.
  return 0;
}

SimNanos NativeEngine::DeviceInterruptCost() const {
  return ctx_.cost().hw_interrupt_delivery;
}

uint64_t NativeEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  // No hypervisor below an OS-level container: the request is a no-op.
  (void)op;
  (void)a0;
  (void)a1;
  return 0;
}

}  // namespace cki
