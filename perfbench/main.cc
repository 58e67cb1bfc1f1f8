// Host-speed benchmark of the simulator (see perfbench/README.md).
//
//   perfbench --workload <mem_sweep|svc_chain|ctr_churn|fleet> --seed <n>
//             --seconds <n> --trace <0|1> [--spans-out <file>]
//             [--fault <digest|leak>]
//
// --trace 0 sets the workload up nine times, spread over --seconds, repeats
// its seeded round in between and prints the end-to-end metrics. --trace 1 alternates untraced rounds with rounds that
// record spans around every call into a simulator layer for two thirds of
// the time, then runs the workload's probes, and prints the per-layer
// metrics. Both print a provenance line and then, as the last
// line, one JSON result. Bad arguments exit 2.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  std::string spans_out;
  std::string fault;
};

int Usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload <mem_sweep|svc_chain|ctr_churn|fleet> --seed <n>"
               " --seconds <n> --trace <0|1> [--spans-out <file>] [--fault <digest|leak>]\n";
  return 2;
}

std::optional<uint64_t> ParseNumber(std::string_view s) {
  if (s.empty() || s.size() > 19) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

// Strict parsing: every flag takes a value ("--flag value" or
// "--flag=value"); an unknown flag, a repeated flag, a missing value or a
// malformed number is an error.
std::optional<std::string> ParseArgs(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return "unexpected argument '" + std::string(arg) + "'";
    }
    std::string flag;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flag = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      flag = arg.substr(2);
      if (i + 1 >= argc) {
        return "--" + flag + " needs a value";
      }
      value = argv[++i];
    }
    static const char* const kFlags[] = {"workload", "seed", "seconds", "trace", "spans-out",
                                         "fault"};
    if (std::find(std::begin(kFlags), std::end(kFlags), flag) == std::end(kFlags)) {
      return "unknown flag --" + flag;
    }
    if (!values.emplace(flag, value).second) {
      return "--" + flag + " given twice";
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (values.count(required) == 0) {
      return std::string("missing --") + required;
    }
  }
  args.workload = values["workload"];
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return "unknown workload '" + args.workload + "'";
  }
  std::optional<uint64_t> seed = ParseNumber(values["seed"]);
  std::optional<uint64_t> seconds = ParseNumber(values["seconds"]);
  std::optional<uint64_t> trace = ParseNumber(values["trace"]);
  if (!seed) {
    return "--seed must be a whole number";
  }
  if (!seconds || *seconds < 1 || *seconds > 3600) {
    return "--seconds must be a whole number from 1 to 3600";
  }
  if (!trace || *trace > 1) {
    return "--trace must be 0 or 1";
  }
  args.seed = *seed;
  args.seconds = *seconds;
  args.trace = static_cast<int>(*trace);
  args.spans_out = values["spans-out"];
  args.fault = values["fault"];
  if (!args.fault.empty() && args.fault != "digest" && args.fault != "leak") {
    return "--fault must be digest or leak";
  }
  return std::nullopt;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double pct) {
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "op/s"},
    {"host_ns_per_event", "ns"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_ns_per_op", "ns"},
};

// Timed calls: median, tail percentile, the tail's percentile and count.
struct Timing {
  const char* name;
  const char* unit;
  double scale;  // from microseconds per unit
};

constexpr Timing kTimings[] = {
    {"runtime.boot_us", "us", 1},       {"runtime.kill_us", "us", 1},
    {"runtime.teardown_us", "us", 1},   {"host.owned_frames_us", "us", 1},
    {"snap.clone_us", "us", 1},         {"snap.checkpoint_us", "us", 1},
    {"snap.restore_us", "us", 1},       {"blkfs.wal_txn_us", "us", 1},
    {"blkfs.scan_page_us", "us", 1},    {"blkfs.clone_us", "us", 1},
    {"blkfs.restore_us", "us", 1},      {"orch.epoch_ms", "ms", 1e-3},
};

// Layers the benchmark's spans enter ("bench" is its own driver code).
constexpr const char* kSpanLayers[] = {"bench", "runtime", "workloads", "host",
                                       "obs",   "snap",    "blkfs",     "orch"};

constexpr Metric kPerLayer[] = {
    {"hw.tlb_hit_ratio", "ratio"},
    {"hw.walks_per_kevent", "count"},
    {"hw.ept_violations_per_kevent", "count"},
    {"hw.host_ns_per_access", "ns"},
    {"guest.syscalls_per_op", "count"},
    {"guest.page_faults_per_op", "count"},
    {"guest.pte_updates_per_op", "count"},
    {"cki.pks_switches_per_op", "count"},
    {"cki.ksm_calls_per_op", "count"},
    {"virt.vm_exits_per_op", "count"},
    {"virt.shadow_pt_updates_per_op", "count"},
    {"host.owned_frames_calls_per_op", "count"},
    {"host.frames_allocated_peak", "count"},
    {"host.owned_frames_share", "ratio"},
    {"net.kicks_per_req", "count"},
    {"net.irqs_per_req", "count"},
    {"net.switch_packets_per_req", "count"},
    {"net.rx_drops", "count"},
    {"net.overloads", "count"},
    {"obs.ring_writes_per_op", "count"},
    {"obs.hist_samples_per_op", "count"},
    {"obs.slo_samples_per_op", "count"},
    {"obs.overhead_x", "x"},
    {"snap.image_kb", "KiB"},
    {"blkfs.warm_hit_ratio", "ratio"},
    {"blkfs.flushes_per_fsync", "count"},
    {"blkfs.writebacks_per_txn", "count"},
    {"blkfs.cow_breaks_per_op", "count"},
    {"orch.clones_per_kreq", "count"},
    {"orch.migrations", "count"},
    {"orch.reaps", "count"},
    {"orch.kills", "count"},
    {"orch.leaked_frames", "count"},
    {"orch.sim_p99_us", "us"},
    {"orch.slo_attain", "ratio"},
    {"resil.retries_per_kreq", "count"},
    {"resil.hedges_per_kreq", "count"},
    {"resil.sheds_per_kreq", "count"},
    {"resil.breaker_opens", "count"},
    {"fault.gray_episodes", "count"},
    {"fault.blackholed_per_kreq", "count"},
    {"cluster.par_speedup", "x"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_sum_ratio", "ratio"},
    {"trace.spans_per_op", "count"},
};

using Values = std::map<std::string, std::pair<double, std::string>>;  // name -> (value, unit)

void PrintNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  std::printf("%.17g", v);
}

void PrintResult(const Outcome& total, const Values& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              total.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintNumber(value.first);
    std::printf(", \"unit\": \"%s\"}", value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void PrintProvenance(const Args& args, const Workload& w, size_t rounds) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
      "\"trace\": %d, \"rounds\": %zu, \"digest\": \"0x%016llx\", \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"lto\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seconds), args.trace, rounds,
      static_cast<unsigned long long>(w.reference().digest), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false");
}

// Timed rounds (or set-ups). Each round must reproduce the warm-up round's
// simulated work. `step_ns[j]` collects step j's host wall time over the
// rounds.
struct Rounds {
  Outcome sum;
  size_t count = 0;
  std::vector<std::vector<double>> step_ns;
  std::vector<double> round_ns;

  void AddTimes(const std::vector<double>& steps, double wall_ns) {
    round_ns.push_back(wall_ns);
    step_ns.resize(steps.size());
    for (size_t j = 0; j < steps.size(); ++j) {
      step_ns[j].push_back(steps[j]);
    }
    count++;
  }
};

bool SameWork(const Outcome& a, const Outcome& b) {
  return a.sim_ns == b.sim_ns && a.sim_ops == b.sim_ops && a.ops == b.ops &&
         a.events == b.events && a.step_ns.size() == b.step_ns.size();
}

void RunRound(Workload& w, Tracer* tracer, Rounds& out) {
  int64_t t0 = NowNs();
  Outcome r = w.Round(tracer);
  out.AddTimes(r.step_ns, static_cast<double>(NowNs() - t0));
  r.EndStep(SameWork(r, w.reference()) ? ""
                                       : " round's simulated work differs from the warm-up round;");
  out.sum.Add(r);
}

// Host ns of one round without host interference: the sum over the round's
// steps of each step's fastest time over all rounds. On a shared host,
// interference only ever slows a step and comes and goes over seconds, so a
// step's minimum over many rounds estimates its cost far more steadily than
// any one round's wall time does.
double BestRoundNs(const Rounds& rounds, const char* what = "rounds") {
  double total = 0;
  for (const std::vector<double>& v : rounds.step_ns) {
    total += *std::min_element(v.begin(), v.end());
  }
  std::cerr << what << " " << rounds.count << ": median " << Median(rounds.round_ns) * 1e-6
            << " ms, fastest steps sum to " << total * 1e-6 << " ms\n";
  return total;
}

void AddTiming(const Tracer& tracer, const Timing& t, Values& values) {
  std::vector<double> v = tracer.UnitMicros(t.name);
  for (double& x : v) {
    x *= t.scale;
  }
  std::sort(v.begin(), v.end());
  const std::string name = t.name;
  // The tail is the highest of p50/p90/p99/p99.9 with at least ten samples
  // beyond it; with fewer than 20 samples it is the maximum.
  double tail_pct = 100;
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(v.size()) * (1 - pct / 100.0) >= 10) {
      tail_pct = pct;
    }
  }
  values[name] = {Median(v), t.unit};
  values[name + ".tail"] = {v.empty() ? 0 : Percentile(v, tail_pct), t.unit};
  values[name + ".tail_pct"] = {v.empty() ? 0 : tail_pct, "pct"};
  values[name + ".n"] = {static_cast<double>(v.size()), "count"};
}

// The run is cut into kSetups slots. Each slot sets the workload up afresh
// and then repeats its round until the slot ends, so set-ups meet the same
// host interference as rounds, spread over the whole run. A set-up's phases
// are the work outside its warm-up round (inputs, machines, templates) and
// each step of that round; setup_s, like the round time, is the sum of each
// phase's fastest time over the set-ups.
int RunUntraced(const Args& args, const Options& opt) {
  constexpr int kSetups = 9;
  Outcome total;
  Outcome first;
  Rounds setups;
  Rounds rounds;
  std::unique_ptr<Workload> w;
  const int64_t start = NowNs();
  const int64_t run_ns = static_cast<int64_t>(args.seconds) * 1'000'000'000;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // the previous set-up's teardown is not set-up time
    const int64_t t0 = NowNs();
    w = MakeWorkload(args.workload, opt);
    w->Setup(nullptr);
    const double setup_ns = static_cast<double>(NowNs() - t0);
    const Outcome& ref = w->reference();
    std::vector<double> phases = {setup_ns};
    for (double step : ref.step_ns) {
      phases[0] -= step;
      phases.push_back(step);
    }
    setups.AddTimes(phases, setup_ns);
    total.Add(ref);
    if (i == 0) {
      first = ref;
    } else {
      total.EndStep(SameWork(ref, first) && ref.digest == first.digest
                        ? ""
                        : " set-up's warm-up round differs from the first set-up's;");
    }
    const int64_t slot_end = start + run_ns * (i + 1) / kSetups;
    do {
      RunRound(*w, nullptr, rounds);
    } while (NowNs() < slot_end);
  }
  total.Add(rounds.sum);
  total.Add(w->Verify());

  const Outcome& ref = w->reference();
  const double round_ns = BestRoundNs(rounds);
  const std::map<std::string, double> v = {
      {"ops_per_s", Ratio(static_cast<double>(ref.ops), round_ns * 1e-9)},
      {"host_ns_per_event", Ratio(round_ns, static_cast<double>(ref.events))},
      {"setup_s", BestRoundNs(setups, "set-ups") * 1e-9},
      {"peak_rss_mb", PeakRssMiB()},
      {"sim_ns_per_op", Ratio(ref.sim_ns, static_cast<double>(ref.sim_ops))},
  };
  Values values;
  for (const Metric& m : kEndToEnd) {
    values[m.name] = {v.at(m.name), m.unit};
  }
  PrintProvenance(args, *w, rounds.count);
  PrintResult(total, values);
  return 0;
}

int RunTraced(const Args& args, const Options& opt) {
  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, opt);
  w->Setup(&tracer);
  Outcome total = w->reference();

  // Untraced and traced rounds alternate, so host interference, which comes
  // and goes over seconds, weighs on both alike.
  Rounds untraced;
  Rounds traced;
  const uint32_t first_step = tracer.step() + 1;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds) * 2'000'000'000 / 3;
  do {
    RunRound(*w, nullptr, untraced);
    RunRound(*w, &tracer, traced);
  } while (NowNs() < deadline);
  total.Add(untraced.sum);
  total.Add(traced.sum);
  const uint32_t last_step = tracer.step();

  std::map<std::string, double> probed = {{"cluster.par_speedup", 0}, {"obs.overhead_x", 0}};
  w->Probe(probed, total);
  total.Add(w->Verify());

  const Outcome& b = traced.sum;
  auto c = [&b](const char* key) {
    auto it = b.counters.find(key);
    return it == b.counters.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(b.ops);
  auto per_op = [ops](double x) { return Ratio(x, ops); };
  const std::map<std::string, int64_t> self = tracer.SelfNsByLayer(first_step, last_step);
  const double root_ns = static_cast<double>(tracer.RootNs(first_step, last_step));
  auto self_ns = [&self](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double accesses = c("ev.tlb_hit") + c("ev.tlb_miss");
  const double events = static_cast<double>(b.events);
  const double requests = c("orch.requests");
  const double runs = c("orch.runs");

  Values values;
  for (const Timing& t : kTimings) {
    AddTiming(tracer, t, values);
  }
  std::map<std::string, double> v = {
      {"hw.tlb_hit_ratio", Ratio(c("ev.tlb_hit"), accesses)},
      {"hw.walks_per_kevent", Ratio(1000 * (c("ev.page_walk_1d") + c("ev.page_walk_2d")), events)},
      {"hw.ept_violations_per_kevent", Ratio(1000 * c("ev.ept_violation"), events)},
      {"hw.host_ns_per_access", Ratio(self_ns("workloads"), accesses)},
      {"guest.syscalls_per_op", per_op(c("kernel.syscalls"))},
      {"guest.page_faults_per_op", per_op(c("kernel.page_faults"))},
      {"guest.pte_updates_per_op", per_op(c("ev.pte_update"))},
      {"cki.pks_switches_per_op", per_op(c("ev.pks_switch"))},
      {"cki.ksm_calls_per_op", per_op(c("ev.ksm_call"))},
      {"virt.vm_exits_per_op", per_op(c("ev.vm_exit") + c("ev.nested_vm_exit"))},
      {"virt.shadow_pt_updates_per_op", per_op(c("ev.shadow_pt_update"))},
      {"host.owned_frames_calls_per_op", per_op(c("owned_frames.calls"))},
      {"host.frames_allocated_peak", c("max.frames_allocated")},
      {"host.owned_frames_share", Ratio(c("owned_frames.est_ns"), root_ns)},
      {"net.kicks_per_req", per_op(c("nic.kicks"))},
      {"net.irqs_per_req", per_op(c("nic.irqs"))},
      {"net.switch_packets_per_req", per_op(c("nic.switch_packets"))},
      {"net.rx_drops", c("nic.rx_drops")},
      {"net.overloads", c("nic.overloads")},
      {"obs.ring_writes_per_op", per_op(c("obs.ring_writes"))},
      {"obs.hist_samples_per_op", per_op(c("obs.hist_samples"))},
      {"obs.slo_samples_per_op", per_op(c("obs.slo_samples"))},
      {"obs.overhead_x", probed["obs.overhead_x"]},
      {"snap.image_kb", Ratio(c("snap.image_bytes") / 1024, c("snap.images"))},
      {"blkfs.warm_hit_ratio", Ratio(c("blkfs.hits"), c("blkfs.hits") + c("blkfs.misses"))},
      {"blkfs.flushes_per_fsync", Ratio(c("vblk.flushes"), c("blkfs.fsyncs"))},
      {"blkfs.writebacks_per_txn", Ratio(c("blkfs.writebacks"), c("blkfs.txns"))},
      {"blkfs.cow_breaks_per_op", per_op(c("blkfs.cow_breaks"))},
      {"orch.clones_per_kreq", Ratio(1000 * c("orch.clones"), requests)},
      {"orch.migrations", Ratio(c("orch.migrations"), runs)},
      {"orch.reaps", Ratio(c("orch.reaps"), runs)},
      {"orch.kills", Ratio(c("orch.kills"), runs)},
      {"orch.leaked_frames", Ratio(c("orch.leaked_frames"), runs)},
      {"orch.sim_p99_us", Ratio(c("orch.p99_ns") / 1000, runs)},
      {"orch.slo_attain", Ratio(c("orch.slo_attain"), runs)},
      {"resil.retries_per_kreq", Ratio(1000 * c("resil.retries"), requests)},
      {"resil.hedges_per_kreq", Ratio(1000 * c("resil.hedges"), requests)},
      {"resil.sheds_per_kreq", Ratio(1000 * c("resil.sheds"), requests)},
      {"resil.breaker_opens", Ratio(c("resil.breaker_opens"), runs)},
      {"fault.gray_episodes", Ratio(c("fault.gray_episodes"), runs)},
      {"fault.blackholed_per_kreq", Ratio(1000 * c("fault.blackholed"), requests)},
      {"cluster.par_speedup", probed["cluster.par_speedup"]},
      {"trace.overhead_frac", Ratio(BestRoundNs(traced), BestRoundNs(untraced)) - 1},
      {"trace.spans_per_op",
       per_op(static_cast<double>(std::count_if(
           tracer.spans().begin(), tracer.spans().end(), [&](const SpanRecord& s) {
             return s.step >= first_step && s.step <= last_step;
           })))},
  };
  double self_sum = 0;
  for (const char* layer : kSpanLayers) {
    values[std::string(layer) + ".self_frac"] = {Ratio(self_ns(layer), root_ns), "ratio"};
    self_sum += self_ns(layer);
  }
  v["trace.self_sum_ratio"] = Ratio(self_sum, root_ns);
  for (const Metric& m : kPerLayer) {
    values[m.name] = {v.at(m.name), m.unit};
  }

  if (!args.spans_out.empty() && !tracer.WriteJson(args.spans_out)) {
    std::cerr << "error: could not write " << args.spans_out << "\n";
    return 1;
  }
  PrintProvenance(args, *w, traced.count);
  PrintResult(total, values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (std::optional<std::string> error = perfbench::ParseArgs(argc, argv, args)) {
    return perfbench::Usage(*error);
  }
  perfbench::Options opt;
  opt.seed = args.seed;
  opt.corrupt_digest = args.fault == "digest";
  opt.leak_frame = args.fault == "leak";
  return args.trace == 0 ? perfbench::RunUntraced(args, opt) : perfbench::RunTraced(args, opt);
}
