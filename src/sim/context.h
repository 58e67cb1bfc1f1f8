// Shared simulation context: the virtual clock, the calibrated cost model,
// and the event trace. One SimContext is threaded through every hardware and
// software component of a simulated machine.
#ifndef SRC_SIM_CONTEXT_H_
#define SRC_SIM_CONTEXT_H_

#include "src/obs/observability.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/trace.h"

namespace cki {

class SimContext {
 public:
  SimContext() : cost_(CostModel::Calibrated()) {}
  explicit SimContext(const CostModel& cost) : cost_(cost) {}

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  const CostModel& cost() const { return cost_; }
  TraceLog& trace() { return trace_; }
  const TraceLog& trace() const { return trace_; }
  Observability& obs() { return obs_; }
  const Observability& obs() const { return obs_; }

  // Charges `ns` of simulated time and records the event that caused it.
  void Charge(SimNanos ns, PathEvent e) {
    clock_.Advance(ns);
    trace_.Record(e);
    obs_.OnEvent(clock_.now(), e);
  }

  // Records an event that consumes no simulated time on its own (its cost
  // is charged elsewhere or is purely informational). Prefer this over
  // trace().Record() so the flight recorder sees the event too.
  void RecordEvent(PathEvent e, uint64_t arg = 0) {
    trace_.Record(e);
    obs_.OnEvent(clock_.now(), e, arg);
  }

  // Charges time with no associated architectural event (plain work).
  void ChargeWork(SimNanos ns) { clock_.Advance(ns); }

 private:
  SimClock clock_;
  CostModel cost_;
  TraceLog trace_;
  Observability obs_;
};

}  // namespace cki

#endif  // SRC_SIM_CONTEXT_H_
