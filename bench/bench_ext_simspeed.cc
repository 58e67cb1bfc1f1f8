// Raw simulator speed gate (ROADMAP item 4, DESIGN.md §14).
//
// Runs the full Figure 13 sweep (55 independent simulated machines) at
// --threads 1, 2 and 8 and reports wall clock, simulated ops/sec (trace
// events retired per wall second) and containers per wall second. Speedups
// are only real if results never move, so the bench hard-fails (exit 1) if
//
//  * the merged determinism hash differs across any two thread counts, or
//  * the hash drifts from the pre-refactor golden pinned below.
//
// The golden changes ONLY when the simulated workload or cost model
// legitimately changes — never because a host-side data structure got
// faster. A perf refactor that moves this hash is a broken refactor
// (DESIGN.md §14 explains how to prove a change hash-neutral).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig13_cells.h"
#include "src/cluster/sim_cluster.h"
#include "src/metrics/report.h"

namespace cki {
namespace {

// Merged fig13-sweep hash, pinned before the ISSUE-9 raw-speed refactor
// (bench_fig13_sweep "determinism-hash" line). Cells consume no random
// draws, so the hash is independent of --root-seed.
constexpr uint64_t kGoldenHash = 0x487be7a142a8c9daULL;

struct SpeedRun {
  uint32_t threads = 1;
  double wall_ms = 0;
  double events = 0;      // simulated ops: trace events retired
  double sim_ns = 0;      // aggregate simulated machine-time
  uint64_t hash = 0;
  size_t cells = 0;

  double MopsPerSec() const { return wall_ms > 0 ? events / 1e3 / wall_ms : 0; }
  double CellsPerSec() const { return wall_ms > 0 ? cells * 1e3 / wall_ms : 0; }
  // Simulated seconds retired per wall second ("how much faster than the
  // fiction's own hardware the simulator runs").
  double SimPerWall() const { return wall_ms > 0 ? sim_ns / 1e6 / wall_ms : 0; }
};

SpeedRun RunSweep(const std::vector<Fig13Cell>& cells, uint32_t threads, uint64_t root_seed) {
  ClusterConfig cc;
  cc.shards = static_cast<uint32_t>(cells.size());
  cc.threads = threads;
  cc.root_seed = root_seed;
  SimCluster cluster(cc);

  auto t0 = std::chrono::steady_clock::now();
  ClusterResult result = cluster.Run([&cells](const ShardTask& task) {
    return RunFig13Cell(cells[task.index]);
  });
  auto t1 = std::chrono::steady_clock::now();

  SpeedRun run;
  run.threads = threads;
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.events = result.SumValue("events");
  run.sim_ns = static_cast<double>(result.TotalSimNs());
  run.hash = result.trace_hash();
  run.cells = cells.size();
  return run;
}

int Run(const BenchIo& io) {
  const std::vector<Fig13Cell> cells = Fig13CellList();
  const uint32_t thread_counts[] = {1, 2, 8};
  // Timing noise: keep the best (fastest) wall clock of `reps` runs per
  // thread count; hashes are checked on every rep.
  const int reps = io.smoke ? 1 : 3;

  std::vector<SpeedRun> runs;
  bool hash_ok = true;
  for (uint32_t threads : thread_counts) {
    SpeedRun best;
    for (int rep = 0; rep < reps; ++rep) {
      SpeedRun r = RunSweep(cells, threads, io.root_seed);
      if (rep == 0 || r.wall_ms < best.wall_ms) {
        best = r;
      }
      if (r.hash != kGoldenHash) {
        hash_ok = false;
      }
    }
    runs.push_back(best);
  }

  ReportTable table("bench_ext_simspeed: fig13 sweep raw speed", "threads",
                    {"wall_ms", "Mops/s", "cells/s", "sim_s_per_wall_s"});
  for (const SpeedRun& r : runs) {
    table.AddRow(std::to_string(r.threads),
                 {r.wall_ms, r.MopsPerSec(), r.CellsPerSec(), r.SimPerWall()});
  }
  table.Print(std::cout, 2);

  double peak_mops = 0;
  for (const SpeedRun& r : runs) {
    peak_mops = std::max(peak_mops, r.MopsPerSec());
  }
  std::cout << "cells: " << cells.size() << ", simulated ops: "
            << static_cast<uint64_t>(runs[0].events) << ", peak "
            << peak_mops << " Mops/s\n";
  for (const SpeedRun& r : runs) {
    std::cout << "determinism-hash[threads=" << r.threads << "]: 0x" << std::hex << r.hash
              << std::dec << "\n";
  }

  if (!io.json_out.empty()) {
    std::ofstream os(io.json_out);
    os << "{\"bench\":\"ext_simspeed\",\"cells\":" << cells.size() << ",\"runs\":[";
    for (size_t i = 0; i < runs.size(); ++i) {
      const SpeedRun& r = runs[i];
      char hash_hex[32];
      std::snprintf(hash_hex, sizeof(hash_hex), "0x%016llx",
                    static_cast<unsigned long long>(r.hash));
      os << (i > 0 ? ",\n" : "\n") << "{\"threads\":" << r.threads << ",\"wall_ms\":" << r.wall_ms
         << ",\"events\":" << static_cast<uint64_t>(r.events)
         << ",\"sim_ns\":" << static_cast<uint64_t>(r.sim_ns)
         << ",\"mops_per_sec\":" << r.MopsPerSec()
         << ",\"cells_per_sec\":" << r.CellsPerSec()
         << ",\"hash\":\"" << hash_hex << "\"}";
    }
    os << "\n]}\n";
    std::cerr << "wrote " << io.json_out << "\n";
  }

  // Hard gates.
  int rc = 0;
  for (size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].hash != runs[0].hash) {
      std::cerr << "FAIL: determinism hash differs across thread counts ("
                << runs[0].threads << " vs " << runs[i].threads << ")\n";
      rc = 1;
    }
  }
  if (!hash_ok) {
    std::cerr << "FAIL: determinism hash drifted from pre-refactor golden 0x" << std::hex
              << kGoldenHash << std::dec
              << " — the refactor changed simulated results, not just speed\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "simspeed gate ok: hash bit-identical at threads 1/2/8 and equal to golden\n";
  }
  return rc;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) { return cki::Run(cki::BenchIo::Parse(argc, argv)); }
