#include "src/orch/orchestrator.h"

#include <algorithm>
#include <utility>

#include "src/cki/cki_engine.h"
#include "src/obs/histogram.h"
#include "src/obs/slo_window.h"
#include "src/resil/health.h"
#include "src/snap/snapshot.h"

namespace cki {
namespace {

// Hash salts that keep action records and chaos strikes from colliding in
// the control digest (each record is salt + its fields, in order).
constexpr uint64_t kHashEpochMark = 0xE70C;
constexpr uint64_t kHashAction = 0xAC71;
constexpr uint64_t kHashMachineKill = 0xFA11;
constexpr uint64_t kHashContainerKill = 0xFA22;

// Request served per arrival: open the warm tmpfs log, pread a record,
// close. pread never allocates tmpfs blocks, so serving any number of
// requests cannot grow the container past its delegated segment.
constexpr uint64_t kRequestPathId = 1;
constexpr uint64_t kRequestReadBytes = 512;
constexpr uint64_t kTemplateLogBytes = 16384;

}  // namespace

// One serving container. The SloWindow and queue position travel with the
// container across live migration; the engine pointer is null once the
// container died (chaos) or was killed by the control plane this epoch —
// dead entries linger until the end of Apply so a policy action aimed at
// a chaos victim is detected (and counted aborted) instead of resolving
// to a stale neighbor.
struct Orchestrator::Managed {
  std::unique_ptr<ContainerEngine> engine;
  uint32_t id = 0;  // engine OwnerId, cached so dead entries stay addressable
  SimNanos busy_until = 0;  // epoch-timeline instant the container frees up
  SloWindow window;
  uint64_t served_epoch = 0;
  uint32_t idle_epochs = 0;
  // Per-destination circuit breaker (null when resilience is disabled).
  // Not migrated with the container: breaker history indicts the machine
  // underneath, and the destination machine is a different suspect.
  std::unique_ptr<CircuitBreaker> breaker;
};

// One shard: a machine plus everything that must survive the machine.
// The arrival process, the fault injector, and the work-jitter RNG are
// deliberately NOT rebuilt when chaos destroys the machine — traffic and
// the chaos schedule are pure functions of the seeds, independent of how
// often the hardware underneath died.
struct Orchestrator::ShardState {
  uint32_t index;
  uint64_t shard_seed;
  bool up = false;
  uint64_t down_until_epoch = 0;

  // machine outlives tmpl/containers (declaration order = reverse
  // destruction order), so engines never outlive their machine.
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ContainerEngine> tmpl;
  std::vector<Managed> containers;

  ArrivalProcess arrivals;
  FaultInjector injector;
  XorShift64Star work_rng;
  GrayFault gray;            // degradation episodes for this machine
  HealthTracker health;      // probe-driven dead-vs-gray discriminator
  RetryBudget retry_budget;  // shard-wide token bucket (storm guard)
  SloWindow latency_window;  // rolling client latency (hedge-delay quantile)
  SloWindow service_window;  // rolling raw service time (admission estimate)

  size_t rr = 0;  // round-robin serve cursor
  Histogram epoch_lat;
  uint64_t epoch_requests = 0;
  uint64_t epoch_lost = 0;
  SimNanos backlog_ns = 0;
  Digest serve_hash;  // cumulative per-shard serve digest
  MetricsRegistry metrics;
  std::vector<SimNanos> arrival_buf;

  // Cumulative resilience accounting, summed into OrchStats after Run.
  uint64_t blackholed = 0;
  uint64_t probes = 0;
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedges_cancelled = 0;
  uint64_t sheds = 0;
  uint64_t deadline_misses = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;

  ShardState(const OrchConfig& cfg, uint32_t idx, uint64_t seed)
      : index(idx),
        shard_seed(seed),
        arrivals(SkewedArrivals(cfg, idx, seed)),
        injector(InjectorConfigFor(cfg, seed)),
        work_rng(SplitSeed(seed, 2)),
        gray(GrayConfigFor(cfg, seed)),
        retry_budget(cfg.resil.retry_budget_ratio, cfg.resil.retry_budget_cap),
        latency_window(SloWindow::Config{.bucket_ns = cfg.epoch_ns, .buckets = 8}),
        service_window(SloWindow::Config{.bucket_ns = cfg.epoch_ns, .buckets = 8}) {}

  static ArrivalConfig SkewedArrivals(const OrchConfig& cfg, uint32_t idx, uint64_t seed) {
    ArrivalConfig ac = cfg.arrivals;
    ac.seed = SplitSeed(seed, 0);
    ac.base_rate_per_sec *= 1.0 + cfg.shard_load_skew * idx;
    return ac;
  }
  static InjectorConfig InjectorConfigFor(const OrchConfig& cfg, uint64_t seed) {
    InjectorConfig ic;
    ic.seed = SplitSeed(seed, 1);
    ic.machine_kill_rate = cfg.machine_kill_rate;
    ic.container_kill_rate = cfg.container_kill_rate;
    ic.latency_inflation_rate = cfg.latency_inflation_rate;
    ic.throughput_throttle_rate = cfg.throughput_throttle_rate;
    ic.packet_blackhole_rate = cfg.packet_blackhole_rate;
    ic.syscall_jitter_rate = cfg.syscall_jitter_rate;
    return ic;
  }
  static GrayConfig GrayConfigFor(const OrchConfig& cfg, uint64_t seed) {
    GrayConfig gc = cfg.gray;
    gc.seed = SplitSeed(seed, 3);
    return gc;
  }

  SloWindow::Config WindowConfig(const OrchConfig& cfg) const {
    return SloWindow::Config{.bucket_ns = cfg.epoch_ns, .buckets = 8};
  }
};

Orchestrator::Orchestrator(const OrchConfig& config, const OrchPolicy& policy)
    : config_(config),
      policy_(policy),
      cluster_(ClusterConfig{.shards = config.shards,
                             .threads = config.threads,
                             .root_seed = config.root_seed}) {
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  if (config_.epoch_ns == 0) {
    config_.epoch_ns = 1;
  }
  shards_.reserve(config_.shards);
  for (uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>(
        config_, i, SimCluster::ShardSeed(config_.root_seed, i)));
    BootShard(i);
  }
}

Orchestrator::~Orchestrator() = default;

uint64_t Orchestrator::CombinedHash() const {
  return Digest().Mix({control_hash_.value(), cluster_hash_.value()}).value();
}

namespace {

std::unique_ptr<ContainerEngine> NewEngine(Machine& machine, const OrchConfig& cfg) {
  if (cfg.kind == RuntimeKind::kCki) {
    // Dense fleets want small delegated segments, not the production
    // default (the bench_ext_coldstart convention).
    return std::make_unique<CkiEngine>(machine, CkiAblation::kNone, cfg.cki_segment_pages);
  }
  return MakeEngine(machine, cfg.kind);
}

// The serverless warm-up: stage the request log in tmpfs and page in the
// function's working set, so clones serve their first request warm.
void WarmTemplate(ContainerEngine& e, const OrchConfig& cfg) {
  SyscallResult r = e.UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = kRequestPathId});
  if (r.ok()) {
    uint64_t fd = static_cast<uint64_t>(r.value);
    e.UserSyscall(SyscallRequest{.no = Sys::kWrite, .arg0 = fd, .arg1 = kTemplateLogBytes});
    e.UserSyscall(SyscallRequest{.no = Sys::kClose, .arg0 = fd});
  }
  e.MmapAnon(cfg.template_warm_pages * kPageSize, /*populate=*/true);
}

}  // namespace

void Orchestrator::BootShard(uint32_t index) {
  ShardState& s = *shards_[index];
  s.machine = std::make_unique<Machine>(
      MachineConfigFor(config_.kind, Deployment::kBareMetal));
  s.tmpl = NewEngine(*s.machine, config_);
  s.tmpl->Boot();
  WarmTemplate(*s.tmpl, config_);
  stats_.template_boots++;
  s.containers.clear();
  s.rr = 0;
  s.health.Reset();  // a rebuilt machine starts with a clean health record
  for (uint32_t i = 0; i < config_.initial_containers; ++i) {
    Managed c;
    c.engine = CloneContainer(*s.tmpl);
    c.id = c.engine->id();
    c.window = SloWindow(s.WindowConfig(config_));
    if (config_.resil.enabled) {
      c.breaker = std::make_unique<CircuitBreaker>(config_.resil);
    }
    s.containers.push_back(std::move(c));
    stats_.clones++;
  }
  s.up = true;
  s.down_until_epoch = 0;
}

OrchStats Orchestrator::Run() {
  if (ran_) {
    return stats_;
  }
  ran_ = true;
  for (uint64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Revival sweep: machines chaos-killed `machine_down_epochs` ago come
    // back as a full cold boot (template + minimum fleet).
    for (uint32_t i = 0; i < config_.shards; ++i) {
      if (!shards_[i]->up && epoch >= shards_[i]->down_until_epoch) {
        BootShard(i);
      }
    }
    ServeEpoch(epoch);
    ClusterSnapshot snap = Collect(epoch);
    cluster_hash_.Mix(snap.Hash());
    std::vector<OrchAction> actions = policy_.Decide(snap);
    control_hash_.Mix({kHashEpochMark, epoch});
    for (const OrchAction& a : actions) {
      control_hash_.Mix(
          {kHashAction, static_cast<uint64_t>(a.kind), a.shard, a.container, a.dst_shard});
    }
    Chaos(epoch);
    Apply(epoch, actions);
    FinishEpoch(epoch);
    last_snapshot_ = std::move(snap);
  }
  // Merge per-shard metrics in index order (bit-stable at any thread
  // count) and derive the fleet-wide latency tail from the merged
  // histogram.
  for (const auto& s : shards_) {
    metrics_.Merge(s->metrics);
  }
  const Histogram* lat = metrics_.FindHist("orch/request_latency_ns");
  stats_.overall_p99_ns = (lat != nullptr && lat->count() > 0) ? lat->Percentile(99) : 0;
  // Fold the per-shard resilience accounting (kept shard-local during the
  // parallel serve phase) into the fleet stats, in shard-index order.
  for (const auto& sp : shards_) {
    stats_.gray_episodes += sp->gray.episodes();
    stats_.blackholed += sp->blackholed;
    stats_.probes += sp->probes;
    stats_.retries += sp->retries;
    stats_.retries_denied += sp->retry_budget.denied();
    stats_.hedges += sp->hedges;
    stats_.hedge_wins += sp->hedge_wins;
    stats_.hedges_cancelled += sp->hedges_cancelled;
    stats_.sheds += sp->sheds;
    stats_.deadline_misses += sp->deadline_misses;
    stats_.breaker_opens += sp->breaker_opens;
    stats_.breaker_short_circuits += sp->breaker_short_circuits;
  }
  metrics_.Inc("resil/gray_episodes", stats_.gray_episodes);
  metrics_.Inc("resil/blackholed", stats_.blackholed);
  metrics_.Inc("resil/retries", stats_.retries);
  metrics_.Inc("resil/retries_denied", stats_.retries_denied);
  metrics_.Inc("resil/hedges", stats_.hedges);
  metrics_.Inc("resil/hedge_wins", stats_.hedge_wins);
  metrics_.Inc("resil/sheds", stats_.sheds);
  metrics_.Inc("resil/deadline_misses", stats_.deadline_misses);
  metrics_.Inc("resil/breaker_opens", stats_.breaker_opens);
  metrics_.Inc("resil/drains", stats_.drains);
  return stats_;
}

void Orchestrator::ServeEpoch(uint64_t epoch) {
  const SimNanos begin = epoch * config_.epoch_ns;
  const SimNanos end = begin + config_.epoch_ns;
  cluster_.Run([this, begin, end](const ShardTask& task) {
    ShardState& s = *shards_[task.index];
    s.epoch_lat.Clear();
    s.epoch_requests = 0;
    s.epoch_lost = 0;
    s.backlog_ns = 0;

    // Traffic is open-loop: the arrival stream advances whether or not
    // this shard has a machine to serve it.
    s.arrival_buf.clear();
    s.arrivals.DrainUntil(end, &s.arrival_buf);
    s.epoch_requests = s.arrival_buf.size();

    // Gray episodes advance on the seed schedule even while the machine
    // is dark, so the episode calendar is a pure function of the seeds —
    // independent of how often the hardware underneath died.
    s.gray.Advance(begin, s.injector,
                   s.up && s.machine != nullptr ? &s.machine->faults() : nullptr);

    if (!s.up) {
      s.epoch_lost += s.arrival_buf.size();
      s.serve_hash.Mix(s.epoch_lost);
      return ShardResult{};
    }

    SimContext& ctx = s.machine->ctx();
    const SimNanos jitter_span =
        config_.request_compute_max_ns > config_.request_compute_min_ns
            ? config_.request_compute_max_ns - config_.request_compute_min_ns
            : 0;
    for (SimNanos arrival : s.arrival_buf) {
      ServeArrival(s, arrival, jitter_span);
    }

    // Epoch-boundary bookkeeping: backlog (how far the most-behind
    // container lags the epoch end), idle streaks, resident-frame gauges.
    for (Managed& c : s.containers) {
      if (c.engine == nullptr || !c.engine->alive()) {
        continue;
      }
      if (c.busy_until > end) {
        s.backlog_ns = std::max(s.backlog_ns, c.busy_until - end);
      }
      c.idle_epochs = c.served_epoch == 0 ? c.idle_epochs + 1 : 0;
      c.served_epoch = 0;
      c.window.SetGauge(end, s.machine->frames().OwnedFrames(c.id));
    }

    // Health probe, off the serving path: one canonical request on the
    // template engine, degraded through the gray model, feeds the
    // dead-vs-gray tracker. The probe latency rides the serve hash so any
    // health divergence across thread counts breaks the determinism check.
    // Part of the resilience layer — the crash-only baseline has no
    // probing and reports every up machine as fully healthy.
    if (config_.resil.enabled && s.tmpl != nullptr && s.tmpl->alive()) {
      const SimNanos t0 = ctx.clock().now();
      SyscallResult r =
          s.tmpl->UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = kRequestPathId});
      if (r.ok()) {
        uint64_t fd = static_cast<uint64_t>(r.value);
        s.tmpl->UserSyscall(
            SyscallRequest{.no = Sys::kPread, .arg0 = fd, .arg1 = kRequestReadBytes});
        s.tmpl->UserSyscall(SyscallRequest{.no = Sys::kClose, .arg0 = fd});
        const SimNanos probe = s.gray.DegradeServiceNs(ctx.clock().now() - t0, end);
        s.health.Observe(probe);
        s.probes++;
        s.serve_hash.Mix(probe);
      }
    }
    s.serve_hash.Mix(s.gray.trace_hash());
    return ShardResult{};
  });
}

Orchestrator::Managed* Orchestrator::PickContainer(ShardState& s, SimNanos at,
                                                   bool respect_breakers,
                                                   const Managed* exclude) {
  const size_t n = s.containers.size();
  if (n == 0) {
    return nullptr;
  }
  for (size_t tries = 0; tries < n; ++tries) {
    Managed& cand = s.containers[s.rr++ % n];
    if (&cand == exclude || cand.engine == nullptr || !cand.engine->alive()) {
      continue;
    }
    if (respect_breakers && cand.breaker != nullptr && !cand.breaker->Allow(at)) {
      s.breaker_short_circuits++;
      continue;
    }
    return &cand;
  }
  return nullptr;
}

SimNanos Orchestrator::RunRequest(ShardState& s, Managed& c, SimNanos at,
                                  SimNanos jitter_span) {
  SimContext& ctx = s.machine->ctx();
  const SimNanos t0 = ctx.clock().now();
  SyscallResult r =
      c.engine->UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = kRequestPathId});
  if (!r.ok()) {
    return 0;
  }
  uint64_t fd = static_cast<uint64_t>(r.value);
  c.engine->UserSyscall(
      SyscallRequest{.no = Sys::kPread, .arg0 = fd, .arg1 = kRequestReadBytes});
  c.engine->UserSyscall(SyscallRequest{.no = Sys::kClose, .arg0 = fd});
  if (jitter_span > 0) {
    ctx.ChargeWork(config_.request_compute_min_ns + s.work_rng.Next() % jitter_span);
  } else {
    ctx.ChargeWork(config_.request_compute_min_ns);
  }
  return s.gray.DegradeServiceNs(ctx.clock().now() - t0, at);
}

void Orchestrator::ServeArrival(ShardState& s, SimNanos arrival, SimNanos jitter_span) {
  const ResilConfig& resil = config_.resil;
  const bool armed = resil.enabled;
  const SimNanos deadline =
      armed && resil.deadline_ns > 0 ? arrival + resil.deadline_ns : 0;
  SimNanos issue = arrival;
  uint32_t attempt = 1;
  for (;;) {
    // Breakers steer load; they must never become a self-inflicted
    // outage. If every live container's breaker is open, fall back to
    // ignoring them rather than dropping the request on the floor.
    Managed* chosen = PickContainer(s, issue, /*respect_breakers=*/armed, nullptr);
    if (chosen == nullptr && armed) {
      chosen = PickContainer(s, issue, /*respect_breakers=*/false, nullptr);
    }
    if (chosen == nullptr) {
      s.epoch_lost++;
      return;
    }
    const SimNanos start = std::max(issue, chosen->busy_until);

    // Admission control: shed now if queue wait plus the rolling median
    // service time cannot land inside the deadline anyway.
    if (deadline != 0) {
      const SimNanos est = s.service_window.Percentile(50);
      if (start + est + resil.shed_slack_ns > deadline) {
        s.sheds++;
        s.epoch_lost++;
        return;
      }
    }

    // Blackhole: the attempt vanishes without an error. The baseline arm
    // just loses the request; the armed arm detects it by attempt
    // timeout, charges the breaker, and retries on the budget's dime.
    if (s.gray.SwallowPacket(start)) {
      s.blackholed++;
      if (!armed) {
        s.epoch_lost++;
        return;
      }
      const SimNanos detect = start + resil.attempt_timeout_ns;
      if (chosen->breaker != nullptr && chosen->breaker->OnFailure(detect)) {
        s.breaker_opens++;
      }
      const SimNanos next_issue = detect + BackoffNs(resil, attempt);
      if (attempt < resil.max_attempts && (deadline == 0 || next_issue < deadline) &&
          s.retry_budget.TryAcquire()) {
        s.retries++;
        attempt++;
        issue = next_issue;
        continue;
      }
      s.epoch_lost++;
      return;
    }

    const SimNanos service = RunRequest(s, *chosen, start, jitter_span);
    if (service == 0) {
      s.epoch_lost++;
      return;
    }
    chosen->busy_until = start + service;
    SimNanos finish = chosen->busy_until;

    // Hedge: planned deterministically from the rolling latency quantile.
    // A primary that beats the fire time cancels it (no second request);
    // otherwise the hedge runs on a different container and the client
    // takes whichever copy finishes first.
    if (armed && attempt == 1) {
      const SimNanos observed = s.latency_window.Percentile(resil.hedge_quantile);
      const HedgePlan plan = PlanHedge(resil, issue, finish, observed);
      if (plan.scheduled && (deadline == 0 || plan.fire_at < deadline)) {
        if (!plan.fired) {
          s.hedges_cancelled++;
        } else {
          Managed* h = PickContainer(s, plan.fire_at, /*respect_breakers=*/true, chosen);
          if (h != nullptr) {
            s.hedges++;
            const SimNanos h_start = std::max(plan.fire_at, h->busy_until);
            const SimNanos h_service = RunRequest(s, *h, h_start, jitter_span);
            if (h_service > 0) {
              h->busy_until = h_start + h_service;
              h->served_epoch++;
              const bool h_late = deadline != 0 && h->busy_until > deadline;
              if (h->breaker != nullptr) {
                if (h_late) {
                  if (h->breaker->OnFailure(h->busy_until)) {
                    s.breaker_opens++;
                  }
                } else {
                  h->breaker->OnSuccess(h->busy_until);
                }
              }
              if (h->busy_until < finish) {
                s.hedge_wins++;
                finish = h->busy_until;
              }
            }
          }
        }
      }
    }

    // Outcome bookkeeping. A served-but-late request still completes for
    // the client, but it counts against the destination's breaker — a
    // gray machine fails by being slow, not by erroring.
    const bool late = deadline != 0 && finish > deadline;
    if (late) {
      s.deadline_misses++;
      if (chosen->breaker != nullptr && chosen->breaker->OnFailure(chosen->busy_until)) {
        s.breaker_opens++;
      }
    } else if (chosen->breaker != nullptr) {
      chosen->breaker->OnSuccess(chosen->busy_until);
    }
    if (armed) {
      s.retry_budget.OnSuccess();
    }

    const SimNanos latency = finish - arrival;
    chosen->window.ObserveLatency(chosen->busy_until, latency);
    chosen->served_epoch++;
    s.latency_window.ObserveLatency(finish, latency);
    s.service_window.ObserveLatency(finish, service);
    s.epoch_lat.Add(latency);
    s.metrics.Hist("orch/request_latency_ns").Add(latency);
    s.metrics.Inc("orch/requests_served");
    s.serve_hash.Mix({arrival, chosen->id, latency, attempt});
    return;
  }
}

ClusterSnapshot Orchestrator::Collect(uint64_t epoch) {
  ClusterSnapshot snap;
  snap.epoch = epoch;
  snap.epoch_ns = config_.epoch_ns;
  snap.slo_p99_ns = config_.slo_p99_ns;
  snap.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const ShardState& s = *sp;
    ShardSignal sig;
    sig.index = s.index;
    sig.up = s.up;
    sig.has_template = s.tmpl != nullptr && s.tmpl->alive();
    sig.backlog_ns = s.backlog_ns;
    sig.epoch_requests = s.epoch_requests;
    sig.epoch_lost = s.epoch_lost;
    sig.epoch_p99_ns = s.epoch_lat.count() > 0 ? s.epoch_lat.Percentile(99) : 0;
    sig.health_x1000 = s.health.score_x1000();
    for (const Managed& c : s.containers) {
      ContainerSignal cs;
      cs.shard = s.index;
      cs.id = c.id;
      cs.alive = c.engine != nullptr && c.engine->alive();
      cs.p99_ns = c.window.Percentile(99);
      cs.window_ops = c.window.WindowOps();
      cs.ops_per_sec = c.window.OpsPerSec();
      cs.resident_frames = c.window.gauge();
      cs.faults = c.window.WindowFaults();
      cs.idle_epochs = c.idle_epochs;
      sig.containers.push_back(cs);
    }
    std::sort(sig.containers.begin(), sig.containers.end(),
              [](const ContainerSignal& a, const ContainerSignal& b) { return a.id < b.id; });
    snap.shards.push_back(std::move(sig));
  }
  return snap;
}

void Orchestrator::Chaos(uint64_t epoch) {
  for (auto& sp : shards_) {
    ShardState& s = *sp;
    if (!s.up) {
      continue;  // a dark machine consumes no chaos draws
    }
    if (s.injector.InjectMachineKill()) {
      stats_.machine_kills++;
      control_hash_.Mix({kHashMachineKill, s.index});
      for (Managed& c : s.containers) {
        KillAndAudit(s, c);
      }
      if (s.tmpl != nullptr) {
        if (s.tmpl->alive()) {
          s.tmpl->KillFromFault();
        }
        const OwnerId tid = s.tmpl->id();
        s.tmpl.reset();
        stats_.leaked_frames +=
            s.machine->frames().OwnedFrames(tid) + s.machine->frames().SharedFrames(tid);
      }
      s.machine.reset();
      s.up = false;
      s.down_until_epoch = epoch + 1 + config_.machine_down_epochs;
      continue;  // no per-container draws on a machine that just died
    }
    for (Managed& c : s.containers) {
      if (c.engine == nullptr || !c.engine->alive()) {
        continue;
      }
      if (s.injector.InjectContainerKill()) {
        stats_.container_kills++;
        control_hash_.Mix({kHashContainerKill, s.index, c.id});
        KillAndAudit(s, c);
      }
    }
  }
}

void Orchestrator::Apply(uint64_t epoch, const std::vector<OrchAction>& actions) {
  const SimNanos boundary = (epoch + 1) * config_.epoch_ns;
  for (const OrchAction& a : actions) {
    if (a.shard >= shards_.size()) {
      continue;
    }
    ShardState& s = *shards_[a.shard];
    switch (a.kind) {
      case OrchActionKind::kScaleUp: {
        // The shard (or its template) may have died between Decide and
        // Apply — chaos overlaps the rebalance by design.
        if (!s.up || s.tmpl == nullptr || !s.tmpl->alive()) {
          break;
        }
        uint32_t alive_before = 0;
        for (const Managed& c : s.containers) {
          alive_before += (c.engine != nullptr && c.engine->alive()) ? 1 : 0;
        }
        Managed c;
        c.engine = CloneContainer(*s.tmpl);
        c.id = c.engine->id();
        c.busy_until = boundary;
        c.window = SloWindow(s.WindowConfig(config_));
        if (config_.resil.enabled) {
          c.breaker = std::make_unique<CircuitBreaker>(config_.resil);
        }
        s.containers.push_back(std::move(c));
        stats_.clones++;
        if (alive_before < config_.initial_containers) {
          stats_.replacements++;
        }
        break;
      }
      case OrchActionKind::kMigrate:
      case OrchActionKind::kDrain: {
        Managed* victim = nullptr;
        for (Managed& c : s.containers) {
          if (c.id == a.container) {
            victim = &c;
            break;
          }
        }
        ShardState* dst =
            a.dst_shard < shards_.size() ? shards_[a.dst_shard].get() : nullptr;
        // Aborted when either end died mid-rebalance (the victim under a
        // chaos strike, or a whole machine on either side).
        if (!s.up || victim == nullptr || victim->engine == nullptr ||
            !victim->engine->alive() || dst == nullptr || !dst->up) {
          stats_.migrations_aborted++;
          break;
        }
        SnapshotImage image = CheckpointContainer(*victim->engine);
        RestoreOutcome out = RestoreContainer(*dst->machine, image);
        if (!out.ok) {
          stats_.migrations_aborted++;
          break;
        }
        Managed moved;
        moved.engine = std::move(out.engine);
        moved.id = moved.engine->id();
        // The queue position and the rolling SLO history migrate with the
        // container: a hot container stays "hot" on its new machine.
        moved.busy_until = std::max(victim->busy_until, boundary);
        moved.window = victim->window;
        moved.idle_epochs = victim->idle_epochs;
        // Breaker history stays behind: it indicted the old machine, and
        // the destination machine is a different suspect.
        if (config_.resil.enabled) {
          moved.breaker = std::make_unique<CircuitBreaker>(config_.resil);
        }
        KillAndAudit(s, *victim);
        dst->containers.push_back(std::move(moved));
        if (a.kind == OrchActionKind::kDrain) {
          stats_.drains++;
        } else {
          stats_.migrations++;
        }
        break;
      }
      case OrchActionKind::kReap: {
        if (!s.up) {
          break;
        }
        for (Managed& c : s.containers) {
          if (c.id == a.container) {
            if (c.engine != nullptr && c.engine->alive()) {
              KillAndAudit(s, c);
              stats_.reaps++;
            }
            break;
          }
        }
        break;
      }
    }
  }
  // Dead entries served their purpose (mid-rebalance victim detection);
  // drop them so the next epoch's snapshot only lists real containers.
  for (auto& sp : shards_) {
    auto& v = sp->containers;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](const Managed& c) {
                             return c.engine == nullptr || !c.engine->alive();
                           }),
            v.end());
  }
}

void Orchestrator::FinishEpoch(uint64_t epoch) {
  (void)epoch;
  Histogram merged;
  uint64_t requests = 0;
  uint64_t lost = 0;
  for (const auto& sp : shards_) {
    merged.Merge(sp->epoch_lat);
    requests += sp->epoch_requests;
    lost += sp->epoch_lost;
    cluster_hash_.Mix(sp->serve_hash.value());
  }
  const uint64_t p99 = merged.count() > 0 ? merged.Percentile(99) : 0;
  stats_.epochs++;
  stats_.requests += requests;
  stats_.lost += lost;
  stats_.served += requests - lost;
  if (p99 <= config_.slo_p99_ns && lost == 0) {
    stats_.epochs_slo_met++;
  }
}

void Orchestrator::KillAndAudit(ShardState& shard, Managed& c) {
  if (c.engine == nullptr) {
    return;
  }
  if (c.engine->alive()) {
    c.engine->KillFromFault();
  }
  const OwnerId id = c.engine->id();
  c.engine.reset();
  // The reclaim contract: after a kill the owner holds nothing — no owned
  // frames, no CoW shares. Anything left is a leak the bench hard-fails on.
  stats_.leaked_frames +=
      shard.machine->frames().OwnedFrames(id) + shard.machine->frames().SharedFrames(id);
}

}  // namespace cki
