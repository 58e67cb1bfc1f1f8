// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every call it makes into a simulator
// layer (the layer is the src/ module the call enters). Spans nest by call
// structure on the single benchmark thread; each carries its step id and
// parent, and stays in memory until the run writes them out. A span's self
// time is its duration minus the durations of its direct children, so the
// self times of one step's spans sum exactly to that step's root span.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* layer = "";  // src/ module entered, or "bench" for the driver itself
  const char* name = "";   // call name; for timed calls, the metric it feeds
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list; -1 for a step root
  uint32_t step = 0;
  uint64_t units = 1;  // work units the call covered (pages, transactions, ...)

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  // Opens a span under the innermost open one; returns its index. A span
  // opened with none open is the root of a new step.
  int Open(const char* layer, const char* name);
  void Close(int index, uint64_t units);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time per layer over every span of the steps in [first, last].
  std::map<std::string, int64_t> SelfNsByLayer(uint32_t first_step, uint32_t last_step) const;
  // Root-span wall time summed over the same steps.
  int64_t RootNs(uint32_t first_step, uint32_t last_step) const;

  // Per-unit durations in microseconds of every closed span named `name`.
  std::vector<double> UnitMicros(const std::string& name) const;

  uint32_t step() const { return step_; }

  // Writes every span as JSON (one object per line inside an array).
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  uint32_t step_ = 0;
};

// RAII span; a null tracer makes it a no-op, which is the untraced run.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Open(layer, name) : -1) {}
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Work units the call covered; timing metrics report duration per unit.
  void set_units(uint64_t units) { units_ = units; }

  // Closes the span early (before scope exit); idempotent.
  void End() {
    if (tracer_ != nullptr && index_ >= 0) {
      tracer_->Close(index_, units_);
      index_ = -1;
    }
  }

 private:
  Tracer* tracer_;
  int index_;
  uint64_t units_ = 1;
};

// One step of a workload: its root span when traced, and its host wall time
// appended to `step_ns` in every run.
class Step {
 public:
  Step(Tracer* tracer, const char* name, std::vector<double>& step_ns)
      : span_(tracer, "bench", name), step_ns_(step_ns), start_ns_(NowNs()) {}
  ~Step() { End(); }

  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

  void End() {
    if (start_ns_ >= 0) {
      step_ns_.push_back(static_cast<double>(NowNs() - start_ns_));
      start_ns_ = -1;
      span_.End();
    }
  }

 private:
  Span span_;
  std::vector<double>& step_ns_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
