// Closed-loop load generator (the memtier/wrk side) attached to the vswitch
// as just another port. It speaks the same connection protocol as the NICs
// but runs outside any container: it pays host-side client work only, never
// an engine's kick/interrupt costs — so differences measured at the served
// containers are attributable to the container designs.
//
// The generator is also the causal-trace boundary: it mints one
// TraceContext per request frame (pure function of `trace_seed` and a
// sequence counter — deterministic, never wall clock) and checks responses
// against the outstanding set, so "did request identity survive the whole
// chain" is a measurable property (matched_responses()).
#ifndef SRC_NET_LOAD_GEN_H_
#define SRC_NET_LOAD_GEN_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/vswitch.h"
#include "src/obs/trace_context.h"
#include "src/sim/seed_split.h"

namespace cki {

// Deterministic open-loop arrival process: the traffic millions of
// simulated users would send, independent of how fast the service drains
// it. A non-homogeneous Poisson process over *simulated* time, realized by
// thinning: a homogeneous xorshift64*-driven stream at the peak rate,
// where each candidate survives with probability rate(t)/peak. The
// instantaneous rate is the base rate modulated by two repeating schedule
// tables — a slow `diurnal` cycle (the day/night curve) and a fast
// `burst` cycle (flash crowds) — both pure functions of simulated time.
//
// Determinism contract: the arrival sequence is a pure function of
// (config, seed); no wall clock, no service feedback, no global state.
// Two processes with seeds from SplitSeed(root, shard) are decorrelated
// but individually bit-reproducible at any thread count (DESIGN.md §9).
struct ArrivalConfig {
  double base_rate_per_sec = 50'000;  // mean arrival rate at multiplier 1.0
  // Rate multipliers cycled over their periods; empty tables mean 1.0.
  std::vector<double> diurnal;                  // day/night curve
  SimNanos diurnal_period_ns = 24'000'000;      // one simulated "day" (24 ms)
  std::vector<double> burst;                    // flash-crowd overlay
  SimNanos burst_period_ns = 3'000'000;
  uint64_t seed = 1;

  // The canonical fleet trace used by the orchestrator bench: a two-peak
  // diurnal curve with a 4x flash crowd riding on it.
  static ArrivalConfig DiurnalBurst(uint64_t seed, double base_rate_per_sec);
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalConfig& config);

  const ArrivalConfig& config() const { return config_; }

  // Instantaneous rate multiplier / absolute rate at `now`. Pure
  // functions of the config and `now` (table lookups, no RNG draws).
  double MultiplierAt(SimNanos now) const;
  double RateAt(SimNanos now) const { return config_.base_rate_per_sec * MultiplierAt(now); }

  // Time of the next arrival strictly after the previous one. Arrivals
  // are minted in nondecreasing time order, forever.
  SimNanos NextArrival();

  // Arrivals with t < `until`, appended to `out`; returns the count.
  // The first arrival at or past `until` is buffered, not lost.
  size_t DrainUntil(SimNanos until, std::vector<SimNanos>* out);

  uint64_t minted() const { return minted_; }

 private:
  ArrivalConfig config_;
  XorShift64Star rng_;
  double peak_rate_per_sec_ = 0;
  SimNanos clock_ns_ = 0;    // candidate-stream time
  SimNanos pending_ = 0;     // buffered arrival from DrainUntil
  bool has_pending_ = false;
  uint64_t minted_ = 0;
};

class LoadGenerator : public NetDevice {
 public:
  LoadGenerator(SimContext& ctx, VSwitch& sw, std::string name, uint64_t trace_seed = 0x6c67656e);

  int port() const { return port_; }

  // Opens a connection to `service` on switch port `dst_port`. Returns the
  // flow id, or a negative errno: kECONNREFUSED when nothing listens
  // (structural), kEBUSY when the listener's backlog is momentarily full
  // (transient — the retry layer may try again).
  int64_t Connect(int dst_port, uint16_t service);

  // Deadline budget granted to every minted request frame: frames carry
  // deadline_ns = now + budget so downstream admission control (VirtNic)
  // can shed infeasible work. 0 (default) stamps no deadline.
  void set_deadline_budget_ns(SimNanos budget) { deadline_budget_ns_ = budget; }

  // Injects `count` request frames of `bytes` each into `flow` as one
  // submission batch (one client-side service charge). Every frame gets a
  // freshly minted TraceContext.
  void SendRequests(int flow, int count, uint64_t bytes);

  // Returns and resets the number of responses received on `flow` since the
  // last call.
  uint64_t TakeResponses(int flow);

  uint64_t response_bytes(int flow) const;

  // --- causal-trace accounting ---------------------------------------------
  // Responses whose trace id matched an outstanding request of this
  // generator — equals requests served iff identity survived every hop.
  uint64_t matched_responses() const { return matched_responses_; }
  // Trace id of the most recently minted request / received response.
  uint64_t last_request_trace() const { return last_request_trace_; }
  uint64_t last_response_trace() const { return last_response_trace_; }

  // --- switch side (NetDevice) ---------------------------------------------
  bool DeliverFrame(const Packet& p) override;

 private:
  struct FlowState {
    int peer = -1;
    uint64_t responses = 0;       // since last TakeResponses
    uint64_t response_bytes = 0;  // lifetime byte accounting
  };

  uint64_t DeadlineFor(SimNanos now) const {
    return deadline_budget_ns_ > 0 ? static_cast<uint64_t>(now + deadline_budget_ns_) : 0;
  }

  SimContext& ctx_;
  VSwitch& sw_;
  std::string name_;
  int port_;
  uint64_t trace_seed_;
  SimNanos deadline_budget_ns_ = 0;

  std::unordered_map<int, FlowState> flows_;
  std::unordered_map<int, int64_t> connect_results_;
  std::unordered_set<uint64_t> outstanding_traces_;  // bounded by in-flight
  uint64_t trace_sequence_ = 0;
  uint64_t matched_responses_ = 0;
  uint64_t last_request_trace_ = 0;
  uint64_t last_response_trace_ = 0;
};

}  // namespace cki

#endif  // SRC_NET_LOAD_GEN_H_
