#include "workloads.h"

#include <algorithm>
#include <array>
#include <iostream>
#include <thread>
#include <utility>

#include "bench/fig13_cells.h"
#include "src/blkfs/blkfs.h"
#include "src/blkfs/layer_store.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/orch/orchestrator.h"
#include "src/orch/policy.h"
#include "src/runtime/runtime.h"
#include "src/obs/histogram.h"
#include "src/sim/fnv.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"
#include "src/snap/snapshot.h"
#include "src/workloads/blkfs_workload.h"
#include "src/workloads/mem_apps.h"
#include "src/workloads/service_chain.h"

namespace perfbench {

using cki::Deployment;
using cki::RuntimeKind;

void Outcome::EndStep(const std::string& failures) {
  attempted++;
  if (!failures.empty()) {
    failed++;
    std::cerr << "check failed:" << failures << "\n";
  }
}

void Outcome::Add(const Outcome& other) {
  ops += other.ops;
  events += other.events;
  sim_ns += other.sim_ns;
  sim_ops += other.sim_ops;
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [name, value] : other.counters) {
    // "max." counters are high-water marks; everything else is a sum.
    double& mine = counters[name];
    mine = name.rfind("max.", 0) == 0 ? std::max(mine, value) : mine + value;
  }
}

uint32_t ParallelThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

namespace {

using EventCounts = std::array<uint64_t, static_cast<size_t>(cki::PathEvent::kCount)>;

// Adds the path events `log` recorded since `before` to the outcome.
void AddEvents(const EventCounts& before, const cki::TraceLog& log, Outcome& out) {
  for (size_t i = 0; i < before.size(); ++i) {
    auto e = static_cast<cki::PathEvent>(i);
    uint64_t delta = log.Count(e) - before[i];
    out.counters["ev." + std::string(cki::PathEventName(e))] += static_cast<double>(delta);
    out.events += delta;
  }
}

void AddKernelTotals(cki::ContainerEngine& engine, Outcome& out) {
  out.counters["kernel.syscalls"] += static_cast<double>(engine.kernel().total_syscalls());
  out.counters["kernel.page_faults"] += static_cast<double>(engine.kernel().total_page_faults());
}

void NotePeakFrames(cki::Machine& machine, Outcome& out) {
  double& peak = out.counters["max.frames_allocated"];
  peak = std::max(peak, static_cast<double>(machine.frames().allocated_frames()));
}

// One OwnedFrames call on a live machine, timed as the host layer's probe.
// `calls` is every OwnedFrames call of the step, the simulator's own call
// sites included; probe time times `calls` estimates their host cost.
uint64_t ProbeOwnedFrames(Tracer* tracer, cki::Machine& machine, cki::OwnerId owner,
                          double calls, Outcome& out) {
  Span span(tracer, "host", "host.owned_frames_us");
  const int64_t t0 = NowNs();
  const uint64_t owned = machine.frames().OwnedFrames(owner);
  out.counters["owned_frames.est_ns"] += static_cast<double>(NowNs() - t0) * calls;
  out.counters["owned_frames.calls"] += calls;
  return owned;
}

// Builds the failure list of one step.
class StepChecks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_ += " " + what + ";";
    }
  }
  const std::string& failures() const { return failures_; }

 private:
  std::string failures_;
};

// The expected value of a digest check, wrong on purpose under the test hook.
uint64_t Expected(const Options& opt, uint64_t digest) {
  return opt.corrupt_digest ? digest ^ 1 : digest;
}

// ---------------------------------------------------------------------------
// mem_sweep: the 55 Figure-13 cells, each on a fresh Testbed, telemetry off.
// The timed rounds run every cell with access-pattern seeds drawn from the
// benchmark seed; the unmodified cells (repo seeds) must still reproduce the
// pinned golden hash, checked once per run.

constexpr uint64_t kFig13Golden = 0x487be7a142a8c9daULL;

class MemSweep final : public Workload {
 public:
  explicit MemSweep(const Options& opt) : opt_(opt) {}

  void Setup(Tracer* tracer) override {
    cells_ = cki::Fig13CellList();
    for (uint32_t i = 0; i < cells_.size(); ++i) {
      seeds_.push_back(cki::SimCluster::ShardSeed(opt_.seed, i));
    }
    reference_ = Round(tracer);
  }

  Outcome Round(Tracer* tracer) override {
    Outcome out;
    std::vector<cki::ShardResult> shards;
    for (uint32_t i = 0; i < cells_.size(); ++i) {
      shards.push_back(RunCell(i, tracer, out));
    }
    out.digest = cki::ClusterResult(std::move(shards)).trace_hash();
    return out;
  }

  Outcome Verify() override {
    Outcome out;
    std::vector<cki::ShardResult> shards;
    for (uint32_t i = 0; i < cells_.size(); ++i) {
      shards.push_back(cki::RunFig13Cell(cells_[i]));
      shards.back().index = i;
    }
    uint64_t hash = cki::ClusterResult(std::move(shards)).trace_hash();
    StepChecks checks;
    checks.Expect(hash == Expected(opt_, kFig13Golden), "mem_sweep golden hash");
    out.EndStep(checks.failures());
    return out;
  }

  // Parallel throughput: the same seeded sweep sharded over SimCluster.
  void Probe(std::map<std::string, double>& metrics, Outcome& checks) override {
    const uint32_t threads = ParallelThreads();
    double serial = 0;
    double parallel = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (uint32_t t : {1u, threads}) {
        cki::SimCluster cluster(
            cki::ClusterConfig{.shards = static_cast<uint32_t>(cells_.size()), .threads = t});
        int64_t t0 = NowNs();
        cki::ClusterResult result = cluster.Run([this](const cki::ShardTask& task) {
          Outcome ignored;
          return RunCell(task.index, nullptr, ignored);
        });
        double wall = static_cast<double>(NowNs() - t0);
        double& best = t == 1 ? serial : parallel;
        best = best == 0 ? wall : std::min(best, wall);
        StepChecks step;
        step.Expect(result.all_ok() && result.trace_hash() == Expected(opt_, reference_.digest),
                    "mem_sweep hash at " + std::to_string(t) + " threads");
        checks.EndStep(step.failures());
      }
    }
    metrics["cluster.par_speedup"] = parallel > 0 ? serial / parallel : 0;
  }

 private:
  cki::ShardResult RunCell(uint32_t index, Tracer* tracer, Outcome& out) {
    const cki::Fig13Cell& cell = cells_[index];
    Step step(tracer, "mem_sweep.cell", out.step_ns);
    std::unique_ptr<cki::Testbed> bed;
    {
      Span span(tracer, "runtime", "runtime.boot_us");
      bed = std::make_unique<cki::Testbed>(cell.kind, cell.deployment);
    }
    cki::SimNanos ns = 0;
    {
      Span span(tracer, "workloads", "workloads.mem_app");
      ns = cell.app == cki::Fig13App::kBtree
               ? cki::RunBtreeRatio(bed->engine(), cell.param, 20000, seeds_[index])
               : cki::RunXsbenchParticles(bed->engine(), static_cast<int>(cell.param), 1500,
                                          seeds_[index]);
    }
    cki::ShardResult r;
    r.index = index;
    r.sim_ns = bed->ctx().clock().now();
    r.HashMix(ns);

    AddEvents(EventCounts{}, bed->ctx().trace(), out);
    AddKernelTotals(bed->engine(), out);
    NotePeakFrames(bed->machine(), out);
    // The probe plus the engine destructor's leak audit.
    ProbeOwnedFrames(tracer, bed->machine(), bed->engine().id(), 2, out);
    {
      Span span(tracer, "runtime", "runtime.teardown_us");
      bed.reset();
    }
    out.sim_ns += static_cast<double>(r.sim_ns);

    StepChecks checks;
    if (reference_cells_.size() == cells_.size()) {
      checks.Expect(r.trace_hash() == Expected(opt_, reference_cells_[index]),
                    "mem_sweep cell " + std::to_string(index) + " hash");
    } else {
      reference_cells_.push_back(r.trace_hash());
    }
    out.EndStep(checks.failures());
    out.ops = out.events;
    out.sim_ops = out.events;
    return r;
  }

  Options opt_;
  std::vector<cki::Fig13Cell> cells_;
  std::vector<uint64_t> seeds_;
  // Per-cell hashes of the warm-up round (filled once, then compared).
  std::vector<uint64_t> reference_cells_;
};

// ---------------------------------------------------------------------------
// svc_chain: loadgen -> proxy -> backend at concurrency 16, every design
// bare-metal and nested, each on a fresh Machine, telemetry on at full rate.

constexpr int kChainConcurrency = 16;
constexpr int kChainRequests = 500;
// Each design runs several short chains per round (distinct request seeds):
// more, shorter steps give the per-step host-time estimate more samples.
constexpr size_t kChainsPerDesign = 4;

struct ChainDesign {
  const char* label;
  RuntimeKind kind;
  Deployment deployment;
};

constexpr ChainDesign kChainDesigns[] = {
    {"RunC-BM", RuntimeKind::kRunc, Deployment::kBareMetal},
    {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
    {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
    {"PVM-BM", RuntimeKind::kPvm, Deployment::kBareMetal},
    {"PVM-NST", RuntimeKind::kPvm, Deployment::kNested},
    {"CKI-BM", RuntimeKind::kCki, Deployment::kBareMetal},
    {"CKI-NST", RuntimeKind::kCki, Deployment::kNested},
};
constexpr size_t kChainSteps = std::size(kChainDesigns) * kChainsPerDesign;

class SvcChain final : public Workload {
 public:
  explicit SvcChain(const Options& opt) : opt_(opt) {}

  void Setup(Tracer* tracer) override {
    for (size_t i = 0; i < kChainSteps; ++i) {
      seeds_.push_back(cki::SimCluster::ShardSeed(opt_.seed, static_cast<uint32_t>(i)));
    }
    reference_ = Round(tracer);
  }

  Outcome Round(Tracer* tracer) override {
    Outcome out;
    out.digest = cki::kFnvOffsetBasis;
    for (size_t i = 0; i < kChainSteps; ++i) {
      out.digest = cki::FnvMix64(out.digest, RunChain(i, /*telemetry=*/true, tracer, out));
    }
    return out;
  }

  Outcome Verify() override { return Outcome{}; }

  // Telemetry cost: a CKI bare-metal chain with the hub on versus off.
  void Probe(std::map<std::string, double>& metrics, Outcome& checks) override {
    const size_t cki_bm = 5 * kChainsPerDesign;
    double on = 0;
    double off = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (bool telemetry : {false, true}) {
        int64_t t0 = NowNs();
        RunChain(cki_bm, telemetry, nullptr, checks);
        double wall = static_cast<double>(NowNs() - t0);
        double& best = telemetry ? on : off;
        best = best == 0 ? wall : std::min(best, wall);
      }
    }
    metrics["obs.overhead_x"] = off > 0 ? on / off : 0;
  }

 private:
  // One chain on a fresh machine; returns its packet-trace hash.
  uint64_t RunChain(size_t index, bool telemetry, Tracer* tracer, Outcome& out) {
    const ChainDesign& design = kChainDesigns[index / kChainsPerDesign];
    Step step(tracer, "svc_chain.design", out.step_ns);
    std::unique_ptr<cki::Machine> machine;
    std::unique_ptr<cki::ContainerEngine> proxy;
    std::unique_ptr<cki::ContainerEngine> backend;
    {
      Span span(tracer, "runtime", "runtime.boot_us");
      span.set_units(2);
      machine = std::make_unique<cki::Machine>(
          cki::MachineConfigFor(design.kind, design.deployment));
      proxy = cki::MakeEngine(*machine, design.kind);
      proxy->Boot();
      backend = cki::MakeEngine(*machine, design.kind);
      backend->Boot();
    }
    cki::Observability& obs = machine->ctx().obs();
    if (telemetry) {
      Span span(tracer, "obs", "obs.enable");
      obs.Enable();
      obs.set_owner(0);
      obs.set_sample_every(1);
    }
    cki::ChainConfig config{.concurrency = kChainConcurrency,
                            .total_requests = kChainRequests,
                            .seed = seeds_[index]};
    cki::ChainResult r;
    {
      Span span(tracer, "workloads", "workloads.service_chain");
      r = cki::RunServiceChain(*proxy, *backend, config);
    }
    if (telemetry) {
      Span span(tracer, "obs", "obs.disable");
      obs.Disable();
      const cki::ObsSelfStats& self = obs.self_stats();
      out.counters["obs.ring_writes"] += static_cast<double>(self.ring_writes);
      out.counters["obs.hist_samples"] += static_cast<double>(self.hist_samples);
      out.counters["obs.slo_samples"] += static_cast<double>(self.slo_samples);
    }
    for (const cki::NicStats* nic : {&r.proxy_nic, &r.backend_nic}) {
      out.counters["nic.kicks"] += static_cast<double>(nic->kicks);
      out.counters["nic.irqs"] += static_cast<double>(nic->interrupts);
      out.counters["nic.rx_drops"] += static_cast<double>(nic->rx_drops);
      out.counters["nic.overloads"] += static_cast<double>(nic->overloads);
    }
    out.counters["nic.switch_packets"] += static_cast<double>(r.switch_packets);
    AddEvents(EventCounts{}, machine->ctx().trace(), out);
    AddKernelTotals(*proxy, out);
    AddKernelTotals(*backend, out);
    NotePeakFrames(*machine, out);
    // The probe, two engine destructor audits and, with telemetry on, the
    // two resident-frame gauges service_chain.cc feeds per round.
    const int chain_rounds = (kChainRequests + kChainConcurrency - 1) / kChainConcurrency;
    ProbeOwnedFrames(tracer, *machine, backend->id(), 3 + (telemetry ? 2 * chain_rounds : 0),
                     out);
    {
      Span span(tracer, "runtime", "runtime.teardown_us");
      span.set_units(2);
      backend.reset();
      proxy.reset();
      machine.reset();
    }
    out.ops += r.served;
    out.sim_ns += static_cast<double>(r.elapsed_ns);
    out.sim_ops += r.served;

    StepChecks checks;
    checks.Expect(r.served == static_cast<uint64_t>(kChainRequests),
                  std::string(design.label) + " served " + std::to_string(r.served));
    checks.Expect(r.matched_traces == r.served,
                  std::string(design.label) + " matched traces " +
                      std::to_string(r.matched_traces));
    if (reference_hashes_.size() == kChainSteps) {
      checks.Expect(r.trace_hash == Expected(opt_, reference_hashes_[index]),
                    std::string(design.label) + " packet-trace hash");
    } else {
      reference_hashes_.push_back(r.trace_hash);
    }
    out.EndStep(checks.failures());
    return r.trace_hash;
  }

  Options opt_;
  std::vector<uint64_t> seeds_;
  std::vector<uint64_t> reference_hashes_;
};

// ---------------------------------------------------------------------------
// ctr_churn: container lifecycles cloned from a warmed CKI template and a
// warmed HVM template, each with a Blkfs over its machine's LayerStore.

constexpr uint64_t kWalName = 0x6c6177;     // "wal"
constexpr uint64_t kDataName = 0x64617461;  // "data"
// WAL length, scan length and checkpoint interval are sized so that the WAL
// and scan calls take about as much of a lifecycle's host time as the snap
// calls do (0.45 and 0.44 on a 4-vCPU Xeon VM); see perfbench/README.md.
constexpr uint64_t kWalBlocks = 64;
constexpr uint64_t kDataBlocks = 768;
constexpr uint64_t kScanBlocks = 768;
constexpr uint64_t kCachePages = 256;
constexpr uint64_t kWorkingSetPages = 256;
constexpr int kWalTxns = 192;
constexpr int kDirtyPages = 64;
constexpr int kLifecyclesPerRound = 16;
constexpr uint64_t kCkiSegmentPages = 2048;  // per-container segment, as in dense fleets
constexpr int kCheckpointEvery = 8;  // per template

cki::BlkfsImageSpec ChurnImage() {
  return cki::BlkfsImageSpec{{{.name = kWalName, .blocks = kWalBlocks, .tag_seed = 7},
                              {.name = kDataName, .blocks = kDataBlocks, .tag_seed = 9}}};
}

// Declaration order is teardown order, reversed: the filesystems go before
// their engines, the stores before their machines.
struct Template {
  std::unique_ptr<cki::Machine> machine;
  std::unique_ptr<cki::LayerStore> store;
  std::unique_ptr<cki::ContainerEngine> engine;
  std::unique_ptr<cki::Blkfs> fs;
  uint64_t working_set_va = 0;
  std::unique_ptr<cki::Machine> restore_machine;
  std::unique_ptr<cki::LayerStore> restore_store;
};

// Seeded per-lifecycle sizes; the same in every round of a run.
struct LifecyclePlan {
  int wal_txns = kWalTxns;
  int dirty_pages = kDirtyPages;
  uint64_t first_page = 0;
  bool checkpoint = false;
};

class CtrChurn final : public Workload {
 public:
  explicit CtrChurn(const Options& opt) : opt_(opt) {}

  void Setup(Tracer* tracer) override {
    cki::Rng rng(opt_.seed);
    for (int i = 0; i < kLifecyclesPerRound; ++i) {
      LifecyclePlan plan;
      plan.wal_txns = kWalTxns + static_cast<int>(rng.NextBelow(kWalTxns / 8));
      plan.dirty_pages = kDirtyPages + static_cast<int>(rng.NextBelow(kDirtyPages / 8));
      plan.first_page = rng.NextBelow(kWorkingSetPages);
      plan.checkpoint = (i / 2) % kCheckpointEvery == kCheckpointEvery - 1;
      plans_.push_back(plan);
    }
    reference_ = Round(tracer);
  }

  // Segments are carved from a bump region that is never reused, and PCIDs
  // and owner ids only grow, so each round warms fresh templates on fresh
  // machines: every round is then the same simulated work.
  Outcome Round(Tracer* tracer) override {
    Outcome out;
    out.digest = cki::kFnvOffsetBasis;
    std::vector<Template> templates;
    {
      Step step(tracer, "ctr_churn.templates", out.step_ns);
      for (RuntimeKind kind : {RuntimeKind::kCki, RuntimeKind::kHvm}) {
        templates.push_back(BuildTemplate(kind, tracer));
      }
    }
    for (int i = 0; i < kLifecyclesPerRound; ++i) {
      Template& t = templates[static_cast<size_t>(i % 2)];
      out.digest = cki::FnvMix64(out.digest, Lifecycle(i, t, tracer, out));
    }
    {
      Step step(tracer, "ctr_churn.templates_teardown", out.step_ns);
      Span span(tracer, "runtime", "runtime.teardown_us");
      span.set_units(templates.size());
      templates.clear();
    }
    return out;
  }

  Outcome Verify() override { return Outcome{}; }

  void Probe(std::map<std::string, double>&, Outcome&) override {}

 private:
  Template BuildTemplate(RuntimeKind kind, Tracer* tracer) {
    Template t;
    {
      Span span(tracer, "host", "host.machines");
      t.machine =
          std::make_unique<cki::Machine>(cki::MachineConfigFor(kind, Deployment::kBareMetal));
      t.restore_machine =
          std::make_unique<cki::Machine>(cki::MachineConfigFor(kind, Deployment::kBareMetal));
    }
    {
      Span span(tracer, "runtime", "runtime.boot_us");
      if (kind == RuntimeKind::kCki) {
        t.engine = std::make_unique<cki::CkiEngine>(*t.machine, cki::CkiAblation::kNone,
                                                    kCkiSegmentPages);
      } else {
        t.engine = cki::MakeEngine(*t.machine, kind);
      }
      t.engine->Boot();
    }
    {
      Span span(tracer, "blkfs", "blkfs.image");
      t.store = std::make_unique<cki::LayerStore>(*t.machine);
      t.restore_store = std::make_unique<cki::LayerStore>(*t.restore_machine);
      cki::BlkfsImageSpec spec = ChurnImage();
      int image = cki::BuildBlkfsImage(*t.store, spec);
      t.fs = std::make_unique<cki::Blkfs>(*t.engine, *t.store, image, spec,
                                          cki::BlkfsConfig{.cache_pages = kCachePages});
    }
    {
      Span span(tracer, "workloads", "workloads.template_warm");
      t.working_set_va =
          t.engine->MmapAnon(kWorkingSetPages * cki::kPageSize, /*populate=*/true);
      cki::RunBlkfsScan(*t.engine, *t.fs, kDataName, kScanBlocks);
      cki::RunBlkfsWal(*t.engine, *t.fs, 16, kWalName);
    }
    return t;
  }

  // Kills `engine` and audits that it holds no frame afterwards.
  void KillAndAudit(cki::ContainerEngine& engine, cki::Machine& machine, Tracer* tracer,
                    Outcome& out, StepChecks& checks, const char* what) {
    {
      Span span(tracer, "runtime", "runtime.kill_us");
      engine.KillFromFault();
    }
    uint64_t leaked_pa = cki::kNoPage;
    if (opt_.leak_frame) {
      leaked_pa = machine.frames().AllocFrame(engine.id());
    }
    // The probe plus the engine destructor's leak audit.
    uint64_t held = ProbeOwnedFrames(tracer, machine, engine.id(), 2, out) +
                    machine.frames().SharedFrames(engine.id());
    checks.Expect(held == 0, std::string(what) + " holds " + std::to_string(held) +
                                 " frames after kill");
    if (leaked_pa != cki::kNoPage) {
      machine.frames().FreeFrame(leaked_pa);
    }
  }

  // One container lifecycle; returns its digest.
  uint64_t Lifecycle(int index, Template& t, Tracer* tracer, Outcome& out) {
    const LifecyclePlan& plan = plans_[static_cast<size_t>(index)];
    Step step(tracer, "ctr_churn.lifecycle", out.step_ns);
    StepChecks checks;
    const cki::SimNanos sim0 = t.machine->ctx().clock().now() +
                               t.restore_machine->ctx().clock().now();
    const EventCounts ev0 = t.machine->ctx().trace().Snapshot();
    const EventCounts rev0 = t.restore_machine->ctx().trace().Snapshot();
    uint64_t digest = cki::kFnvOffsetBasis;

    std::unique_ptr<cki::ContainerEngine> clone;
    {
      Span span(tracer, "snap", "snap.clone_us");
      clone = cki::CloneContainer(*t.engine);
    }
    std::unique_ptr<cki::Blkfs> fs;
    {
      Span span(tracer, "blkfs", "blkfs.clone_us");
      fs = cki::Blkfs::Clone(*clone, *t.fs);
    }
    const cki::BlkfsCounters c0 = fs->counters();
    const cki::VirtioBlkStats d0 = fs->device_stats();
    cki::BlkfsRunResult wal;
    {
      Span span(tracer, "workloads", "blkfs.wal_txn_us");
      span.set_units(static_cast<uint64_t>(plan.wal_txns));
      wal = cki::RunBlkfsWal(*clone, *fs, plan.wal_txns, kWalName);
    }
    cki::BlkfsRunResult scan;
    {
      Span span(tracer, "workloads", "blkfs.scan_page_us");
      span.set_units(kScanBlocks);
      scan = cki::RunBlkfsScan(*clone, *fs, kDataName, kScanBlocks);
    }
    checks.Expect(wal.dev_flushes >= static_cast<uint64_t>(plan.wal_txns),
                  "fsyncs reached the device " + std::to_string(wal.dev_flushes) + " times");
    int touched = 0;
    {
      Span span(tracer, "runtime", "runtime.user_touch");
      span.set_units(static_cast<uint64_t>(plan.dirty_pages));
      for (int p = 0; p < plan.dirty_pages; ++p) {
        uint64_t page = (plan.first_page + static_cast<uint64_t>(p)) % kWorkingSetPages;
        touched += clone->UserTouch(t.working_set_va + page * cki::kPageSize, true) ==
                   cki::TouchResult::kOk;
      }
    }
    checks.Expect(touched == plan.dirty_pages, "working-set writes failed");
    const cki::BlkfsCounters& c1 = fs->counters();
    const cki::VirtioBlkStats& d1 = fs->device_stats();
    out.counters["blkfs.hits"] += static_cast<double>(c1.hits - c0.hits);
    out.counters["blkfs.misses"] += static_cast<double>(c1.misses - c0.misses);
    out.counters["blkfs.writebacks"] += static_cast<double>(c1.writebacks - c0.writebacks);
    out.counters["blkfs.fsyncs"] += static_cast<double>(c1.fsyncs - c0.fsyncs);
    out.counters["blkfs.cow_breaks"] += static_cast<double>(c1.cow_breaks - c0.cow_breaks);
    out.counters["blkfs.txns"] += plan.wal_txns;
    out.counters["vblk.flushes"] += static_cast<double>(d1.flushes - d0.flushes);
    digest = cki::FnvMix64(cki::FnvMix64(digest, wal.elapsed), scan.elapsed);

    if (plan.checkpoint) {
      cki::SnapshotImage image;
      {
        Span span(tracer, "snap", "snap.checkpoint_us");
        image = cki::CheckpointContainer(*clone, nullptr, nullptr, fs.get());
      }
      out.counters["snap.image_bytes"] += static_cast<double>(image.bytes.size());
      out.counters["snap.images"] += 1;
      digest = cki::FnvMix64(digest, image.content_hash());
      cki::RestoreOutcome restored;
      {
        Span span(tracer, "snap", "snap.restore_us");
        restored = cki::RestoreContainer(*t.restore_machine, image);
      }
      checks.Expect(restored.ok, "restore failed");
      if (restored.ok) {
        std::unique_ptr<cki::Blkfs> restored_fs;
        {
          Span span(tracer, "blkfs", "blkfs.restore_us");
          restored_fs =
              cki::RestoreBlkfsState(*restored.engine, *t.restore_store, restored.blkfs_state);
        }
        checks.Expect(restored_fs != nullptr, "RestoreBlkfsState returned null");
        cki::SnapshotImage again;
        {
          Span span(tracer, "snap", "snap.recheckpoint");
          again = cki::CheckpointContainer(*restored.engine, nullptr, nullptr, restored_fs.get());
        }
        uint64_t want = Expected(opt_, image.content_hash());
        checks.Expect(again.bytes == image.bytes && again.content_hash() == want,
                      "re-checkpoint of the restored container differs");
        AddKernelTotals(*restored.engine, out);
        KillAndAudit(*restored.engine, *t.restore_machine, tracer, out, checks, "restored");
        restored_fs.reset();
        Span span(tracer, "runtime", "runtime.teardown_us");
        restored.engine.reset();
      }
    }

    AddKernelTotals(*clone, out);
    NotePeakFrames(*t.machine, out);
    digest = cki::FnvMix64(digest, fs->trace_hash());
    KillAndAudit(*clone, *t.machine, tracer, out, checks, "clone");
    fs.reset();
    {
      Span span(tracer, "runtime", "runtime.teardown_us");
      clone.reset();
    }

    AddEvents(ev0, t.machine->ctx().trace(), out);
    AddEvents(rev0, t.restore_machine->ctx().trace(), out);
    out.sim_ns += static_cast<double>(t.machine->ctx().clock().now() +
                                      t.restore_machine->ctx().clock().now() - sim0);
    out.sim_ops += 1;
    out.ops += 1;
    if (reference_digests_.size() == static_cast<size_t>(kLifecyclesPerRound)) {
      checks.Expect(digest == Expected(opt_, reference_digests_[static_cast<size_t>(index)]),
                    "lifecycle digest");
    } else {
      reference_digests_.push_back(digest);
    }
    out.EndStep(checks.failures());
    return digest;
  }

  Options opt_;
  std::vector<LifecyclePlan> plans_;
  std::vector<uint64_t> reference_digests_;
};

// ---------------------------------------------------------------------------
// fleet: Orchestrator::Run with ReactivePolicy over 4 shards, machine and
// container kill chaos, gray episodes and the resilience layer on.

cki::OrchConfig FleetConfig(uint64_t seed, uint32_t threads) {
  cki::OrchConfig cfg;
  cfg.shards = 4;
  cfg.threads = threads;
  cfg.root_seed = seed;
  cfg.epochs = 64;
  cfg.epoch_ns = 1'000'000;
  cfg.slo_p99_ns = 400'000;
  cfg.initial_containers = 2;
  // bench_ext_orchestrator's traffic and hard chaos (diurnal day with
  // dead-of-night slots so the reap path runs, later shards hotter, machine
  // and container kills) plus bench_ext_resilience's softened flash crowd
  // and gray-episode rates. The fleet runs past saturation: the resilience
  // layer sheds and retries all run long.
  cfg.arrivals = cki::ArrivalConfig::DiurnalBurst(/*seed=*/0, /*base_rate_per_sec=*/90'000);
  cfg.arrivals.diurnal[0] = 0.0;
  cfg.arrivals.diurnal[1] = 0.0;
  cfg.arrivals.burst[4] = 2.5;
  cfg.shard_load_skew = 0.6;
  cfg.machine_kill_rate = 0.02;
  cfg.container_kill_rate = 0.05;
  cfg.latency_inflation_rate = 0.15;
  cfg.throughput_throttle_rate = 0.05;
  cfg.packet_blackhole_rate = 0.10;
  cfg.syscall_jitter_rate = 0.10;
  cfg.resil.enabled = true;
  return cfg;
}

cki::ReactiveConfig FleetPolicy() {
  cki::ReactiveConfig rc;
  rc.reap_idle_epochs = 4;
  rc.gray_health_x1000 = 700;
  return rc;
}

// ReactivePolicy that also counts, from each epoch's snapshot, the live
// containers on up shards: the serve phase has just sampled each one's
// resident-frame gauge with one OwnedFrames call.
class GaugeCountingPolicy final : public cki::OrchPolicy {
 public:
  GaugeCountingPolicy() : inner_(FleetPolicy()) {}
  std::string_view name() const override { return inner_.name(); }
  std::vector<cki::OrchAction> Decide(const cki::ClusterSnapshot& snap) const override {
    for (const cki::ShardSignal& shard : snap.shards) {
      for (const cki::ContainerSignal& c : shard.containers) {
        gauges_ += shard.up && c.alive ? 1 : 0;
      }
    }
    return inner_.Decide(snap);
  }
  // Gauge calls since the last call.
  uint64_t TakeGauges() { return std::exchange(gauges_, 0); }

 private:
  cki::ReactivePolicy inner_;
  mutable uint64_t gauges_ = 0;  // Decide runs on the serial control phase
};

// Orchestrated runs per round, each with its own seed: chaos makes one run's
// host cost swing with its seed, and a round averages several.
constexpr uint32_t kFleetRuns = 8;

class Fleet final : public Workload {
 public:
  explicit Fleet(const Options& opt) : opt_(opt) {}

  void Setup(Tracer* tracer) override { reference_ = Round(tracer); }

  Outcome Round(Tracer* tracer) override {
    Outcome out;
    out.digest = cki::kFnvOffsetBasis;
    for (uint32_t k = 0; k < kFleetRuns; ++k) {
      out.digest = cki::FnvMix64(out.digest, RunFleet(k, 1, tracer, out));
    }
    return out;
  }

  // The first run again at min(nproc, 4) serve-phase threads.
  Outcome Verify() override {
    Outcome out;
    RunFleet(0, ParallelThreads(), nullptr, out);
    return out;
  }

  // Parallel throughput: the first run at 1 and min(nproc, 4) threads.
  void Probe(std::map<std::string, double>& metrics, Outcome& checks) override {
    const uint32_t threads = ParallelThreads();
    double serial = 0;
    double parallel = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (uint32_t t : {1u, threads}) {
        Outcome run;
        int64_t t0 = NowNs();
        RunFleet(0, t, nullptr, run);
        double wall = static_cast<double>(NowNs() - t0);
        double& best = t == 1 ? serial : parallel;
        best = best == 0 ? wall : std::min(best, wall);
        checks.attempted += run.attempted;
        checks.failed += run.failed;
      }
    }
    metrics["cluster.par_speedup"] = parallel > 0 ? serial / parallel : 0;
  }

 private:
  // Orchestrated run `k` of a round; returns its CombinedHash, which every
  // run after the warm-up must reproduce at any thread count.
  uint64_t RunFleet(uint32_t k, uint32_t threads, Tracer* tracer, Outcome& out) {
    const cki::OrchConfig cfg = FleetConfig(cki::SimCluster::ShardSeed(opt_.seed, k), threads);
    Step step(tracer, "fleet.run", out.step_ns);
    std::unique_ptr<cki::Orchestrator> orch;
    {
      // The constructor boots every shard's machine and template.
      Span span(tracer, "orch", "runtime.boot_us");
      span.set_units(cfg.shards);
      orch = std::make_unique<cki::Orchestrator>(cfg, policy_);
    }
    cki::OrchStats s;
    {
      Span span(tracer, "orch", "orch.epoch_ms");
      span.set_units(cfg.epochs);
      s = orch->Run();
    }
    const uint64_t hash = orch->CombinedHash();
    const cki::Histogram* lat = orch->metrics().FindHist("orch/request_latency_ns");
    if (lat != nullptr) {
      out.sim_ns += lat->Sum();
      out.sim_ops += lat->count();
    }
    {
      Span span(tracer, "orch", "runtime.teardown_us");
      span.set_units(cfg.shards);
      orch.reset();
    }

    out.ops += s.requests;
    // The orchestrator keeps its machines private, so fleet counts request
    // attempts (arrivals, retries, hedges, health probes) as its events.
    out.events += s.requests + s.retries + s.hedges + s.probes;
    // Only the per-epoch gauges: the audits at kill, reap, migration and
    // teardown happen inside the orchestrator, which exposes no count.
    out.counters["owned_frames.calls"] += static_cast<double>(policy_.TakeGauges());
    out.counters["orch.runs"] += 1;
    out.counters["orch.epochs"] += static_cast<double>(s.epochs);
    out.counters["orch.requests"] += static_cast<double>(s.requests);
    out.counters["orch.clones"] += static_cast<double>(s.clones);
    out.counters["orch.migrations"] += static_cast<double>(s.migrations);
    out.counters["orch.reaps"] += static_cast<double>(s.reaps);
    out.counters["orch.kills"] += static_cast<double>(s.machine_kills + s.container_kills);
    out.counters["orch.leaked_frames"] += static_cast<double>(s.leaked_frames);
    out.counters["orch.p99_ns"] += static_cast<double>(s.overall_p99_ns);
    out.counters["orch.slo_attain"] += s.SloAttainment();
    out.counters["resil.retries"] += static_cast<double>(s.retries);
    out.counters["resil.hedges"] += static_cast<double>(s.hedges);
    out.counters["resil.sheds"] += static_cast<double>(s.sheds);
    out.counters["resil.breaker_opens"] += static_cast<double>(s.breaker_opens);
    out.counters["fault.gray_episodes"] += static_cast<double>(s.gray_episodes);
    out.counters["fault.blackholed"] += static_cast<double>(s.blackholed);

    StepChecks checks;
    checks.Expect(s.leaked_frames == 0, "fleet leaked " + std::to_string(s.leaked_frames));
    checks.Expect(s.requests == s.served + s.lost, "fleet request accounting");
    if (reference_hashes_.size() == kFleetRuns) {
      checks.Expect(hash == Expected(opt_, reference_hashes_[k]),
                    "fleet combined hash at " + std::to_string(threads) + " threads");
    } else {
      reference_hashes_.push_back(hash);
    }
    out.EndStep(checks.failures());
    return hash;
  }

  Options opt_;
  GaugeCountingPolicy policy_;
  std::vector<uint64_t> reference_hashes_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mem_sweep", "svc_chain", "ctr_churn",
                                                 "fleet"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name, const Options& options) {
  if (name == "mem_sweep") {
    return std::make_unique<MemSweep>(options);
  }
  if (name == "svc_chain") {
    return std::make_unique<SvcChain>(options);
  }
  if (name == "ctr_churn") {
    return std::make_unique<CtrChurn>(options);
  }
  if (name == "fleet") {
    return std::make_unique<Fleet>(options);
  }
  return nullptr;
}

}  // namespace perfbench
