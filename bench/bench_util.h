// Shared helpers for the per-figure/table benchmark binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "src/obs/json_util.h"
#include "src/obs/trace_export.h"
#include "src/runtime/runtime.h"

namespace cki {

struct BenchConfig {
  std::string label;
  RuntimeKind kind;
  Deployment deployment;
};

// Figure 4/5 (motivation): secure containers vs RunC, without CKI.
inline std::vector<BenchConfig> MotivationConfigs() {
  return {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"PVM-NST", RuntimeKind::kPvm, Deployment::kNested},
      {"RunC-BM", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM-BM", RuntimeKind::kPvm, Deployment::kBareMetal},
  };
}

// Figure 12 main configurations.
inline std::vector<BenchConfig> Fig12Configs() {
  return {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
  };
}

// Figure 11 / Figure 14 configurations (bare-metal).
inline std::vector<BenchConfig> BareMetalConfigs() {
  return {
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
  };
}

// Figure 16 configurations.
inline std::vector<BenchConfig> Fig16Configs() {
  return {
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"PVM-BM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"PVM-NST", RuntimeKind::kPvm, Deployment::kNested},
      {"CKI-BM", RuntimeKind::kCki, Deployment::kBareMetal},
      {"CKI-NST", RuntimeKind::kCki, Deployment::kNested},
  };
}

// Options shared by all bench binaries — the one consolidated usage block
// (every flag every bench accepts lives here; keep it in sync with Parse
// below and kUsage). Parse exits 2 on an unknown flag or a malformed
// number, so a typo never silently runs the bench default.
//
// Observability output:
//   --json-out=<file>     machine-readable per-config metrics dump
//   --trace-out=<file>    merged Chrome trace-event file (Perfetto-loadable;
//                         includes causal request flows, DESIGN.md §11)
//   --metrics-csv=<file>  flat CSV of every counter/histogram per config
//                         (spreadsheet-ready companion of --json-out)
//
// Telemetry cost control (DESIGN.md §11):
//   --sample-every=<n>    keep recorder/span/histogram writes for 1 in n
//                         root operations (default 1 = full rate; SLO
//                         windows and self-accounting stay always-on).
//                         Never changes simulated time or trace hashes.
//
// Cluster scale-out (benches built on SimCluster, DESIGN.md §9):
//   --shards=<n>          independent simulated machines (0: bench default)
//   --threads=<n>         worker OS threads (0: bench default; results are
//                         identical at any value — threads change
//                         wall-clock time only)
//   --root-seed=<n>       root of the deterministic per-shard seed split
//
// Run shape (benches without the feature ignore these):
//   --smoke               the bench's short CI configuration
//   --chaos-kinds=<list>  comma-separated fault kinds to arm; each chaos
//                         bench checks the list against its own sites
struct BenchIo {
  std::string json_out;
  std::string trace_out;
  std::string metrics_csv;
  uint32_t sample_every = 1;  // 1: full rate
  uint32_t shards = 0;        // 0: bench-specific default
  uint32_t threads = 0;       // 0: bench-specific default
  uint64_t root_seed = 1;
  bool smoke = false;
  std::optional<std::string> chaos_kinds;  // raw list; unset: not given

  bool observing() const {
    return !json_out.empty() || !trace_out.empty() || !metrics_csv.empty();
  }

  // The shard/thread counts to actually run with, given bench defaults.
  uint32_t ShardsOr(uint32_t fallback) const { return shards != 0 ? shards : fallback; }
  uint32_t ThreadsOr(uint32_t fallback) const { return threads != 0 ? threads : fallback; }

  static BenchIo Parse(int argc, char** argv) {
    BenchIo io;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      std::string_view v;
      if (arg == "--smoke") {
        io.smoke = true;
      } else if (Flag(arg, "--json-out=", &v)) {
        io.json_out = v;
      } else if (Flag(arg, "--trace-out=", &v)) {
        io.trace_out = v;
      } else if (Flag(arg, "--metrics-csv=", &v)) {
        io.metrics_csv = v;
      } else if (Flag(arg, "--sample-every=", &v)) {
        io.sample_every = std::max<uint32_t>(1, Number<uint32_t>(arg, v));
      } else if (Flag(arg, "--shards=", &v)) {
        io.shards = Number<uint32_t>(arg, v);
      } else if (Flag(arg, "--threads=", &v)) {
        io.threads = Number<uint32_t>(arg, v);
      } else if (Flag(arg, "--root-seed=", &v)) {
        io.root_seed = Number<uint64_t>(arg, v);
      } else if (Flag(arg, "--chaos-kinds=", &v)) {
        io.chaos_kinds = std::string(v);
      } else {
        Fail("unknown argument", arg);
      }
    }
    return io;
  }

 private:
  static constexpr std::string_view kUsage =
      "supported: --json-out=<file> --trace-out=<file> --metrics-csv=<file>"
      " --sample-every=<n> --shards=<n> --threads=<n> --root-seed=<n>"
      " --smoke --chaos-kinds=<list>";

  static bool Flag(std::string_view arg, std::string_view name, std::string_view* value) {
    if (arg.rfind(name, 0) != 0) {
      return false;
    }
    *value = arg.substr(name.size());
    return true;
  }

  [[noreturn]] static void Fail(std::string_view what, std::string_view arg) {
    std::cerr << "error: " << what << ": " << arg << " (" << kUsage << ")\n";
    std::exit(2);
  }

  // A whole decimal number that fits T; anything else exits 2.
  template <typename T>
  static T Number(std::string_view arg, std::string_view text) {
    T value = 0;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      Fail("bad number", arg);
    }
    return value;
  }
};

// Accumulates the observability output of several measured configurations
// (one Testbed each) and writes the merged files on Write(). Each config
// becomes one JSON entry and one trace process track.
class BenchObsSink {
 public:
  explicit BenchObsSink(BenchIo io) : io_(std::move(io)) {}

  bool active() const { return io_.observing(); }
  const BenchIo& io() const { return io_; }

  // Captures one configuration after its measured region: `total_ns` is the
  // raw end-to-end simulated time of the measured region; `obs` holds the
  // spans/metrics/records collected during it.
  void AddConfig(std::string_view label, SimNanos total_ns, const Observability& obs) {
    if (!active()) {
      return;
    }
    std::ostringstream json;
    json << "{\"label\":";
    WriteJsonString(json, label);
    json << ",\"total_ns\":" << total_ns << ",\"obs\":";
    obs.WriteJson(json);
    json << "}";
    config_json_.push_back(json.str());
    std::ostringstream trace;
    WriteChromeTraceEvents(obs, static_cast<uint32_t>(config_json_.size()), label, &trace_first_,
                           trace);
    trace_events_ << trace.str();
    if (obs.has_data()) {
      // The CSV gets the registry plus the per-container SLO gauges, so
      // rolling p99/rate/fault columns land next to the raw counters.
      MetricsRegistry with_slo = obs.metrics();
      obs.ExportSloMetrics(with_slo);
      with_slo.WriteCsvRows(csv_rows_, label);
    }
  }

  // Writes the requested files; call once after all configs ran. Returns
  // false (and reports on stderr) if any requested file could not be written.
  bool Write(std::string_view bench_name) {
    bool ok = true;
    if (!io_.json_out.empty()) {
      std::ofstream os(io_.json_out);
      os << "{\"bench\":";
      WriteJsonString(os, bench_name);
      os << ",\"configs\":[";
      for (size_t i = 0; i < config_json_.size(); ++i) {
        os << (i > 0 ? ",\n" : "\n") << config_json_[i];
      }
      os << "\n]}\n";
      ok &= ReportWrite(os, io_.json_out);
    }
    if (!io_.trace_out.empty()) {
      std::ofstream os(io_.trace_out);
      os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
         << trace_events_.str() << "\n]}\n";
      ok &= ReportWrite(os, io_.trace_out);
    }
    if (!io_.metrics_csv.empty()) {
      std::ofstream os(io_.metrics_csv);
      MetricsRegistry::WriteCsvHeader(os);
      os << csv_rows_.str();
      ok &= ReportWrite(os, io_.metrics_csv);
    }
    return ok;
  }

 private:
  static bool ReportWrite(std::ofstream& os, const std::string& path) {
    os.flush();
    if (!os) {
      std::cerr << "error: could not write " << path << "\n";
      return false;
    }
    std::cerr << "wrote " << path << "\n";
    return true;
  }

  BenchIo io_;
  std::vector<std::string> config_json_;
  std::ostringstream trace_events_;
  std::ostringstream csv_rows_;
  bool trace_first_ = true;
};

}  // namespace cki

#endif  // BENCH_BENCH_UTIL_H_
