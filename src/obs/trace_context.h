// Causal request identity carried across container boundaries.
//
// A TraceContext names one end-to-end request: `trace_id` is minted once
// (by the load generator, from its deterministic seed and a per-request
// sequence number) and never changes as the request crosses VSwitch hops,
// containers, checkpoints and shard migrations; `span_id` names the causal
// step within the request and is re-derived at every hop. Both are pure
// FNV-1a mixes of deterministic inputs — never wall clock, never
// addresses — so the same seed replays the same trace ids at any thread
// count (the DESIGN.md §9 determinism contract extended to identities).
//
// Propagation rules (DESIGN.md §11):
//   * mint    — LoadGenerator::SendRequests creates a fresh context per
//               request frame
//   * carry   — Packet ships (trace_id, span_id) with every data frame
//   * adopt   — VirtNic::Receive stores the frame's context as the guest
//               kernel's ambient `net_trace`
//   * stamp   — VirtNic::Transmit copies the ambient context onto outgoing
//               frames with a freshly derived span id
//   * persist — GuestKernel snapshot/restore/clone carry the ambient
//               context, so a migrated container keeps its request identity
//
// Propagation is always on (a few u64 copies); *recording* flow points is
// gated by the observability hub like everything else.
#ifndef SRC_OBS_TRACE_CONTEXT_H_
#define SRC_OBS_TRACE_CONTEXT_H_

#include <cstdint>

#include "src/sim/fnv.h"

namespace cki {

struct TraceContext {
  uint64_t trace_id = 0;  // request identity; 0 means "no trace"
  uint64_t span_id = 0;   // causal step within the request

  bool active() const { return trace_id != 0; }
};

// Mints the context for request `sequence` of the generator seeded with
// `seed`. Pure function of its arguments; never returns trace_id 0.
inline TraceContext MakeTraceContext(uint64_t seed, uint64_t sequence) {
  uint64_t id = Digest().Mix({seed, sequence}).value();
  if (id == 0) {
    id = kFnvOffsetBasis;  // vanishing FNV output; keep "no trace" reserved
  }
  return TraceContext{.trace_id = id, .span_id = id};
}

// Derives the next causal span id from `tc` and a hop-local salt (port,
// per-port frame counter, ...). Inactive contexts stay inactive.
inline uint64_t DeriveSpanId(const TraceContext& tc, uint64_t salt) {
  if (!tc.active()) {
    return 0;
  }
  uint64_t s = Digest().Mix({tc.span_id, salt}).value();
  return s == 0 ? kFnvOffsetBasis : s;
}

}  // namespace cki

#endif  // SRC_OBS_TRACE_CONTEXT_H_
