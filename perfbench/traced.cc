#include "traced.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/cc/waits_for_graph.h"
#include "ccsim/db/catalog.h"
#include "ccsim/db/placement.h"
#include "ccsim/engine/system.h"
#include "ccsim/experiments/cache.h"
#include "ccsim/net/network.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/resource/disk.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/latency_histogram.h"
#include "ccsim/stats/tally.h"
#include "ccsim/workload/access_generator.h"

namespace perfbench {
namespace {

using ccsim::config::SystemConfig;
using ccsim::engine::RunResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per worker, written out once at the end.

struct Span {
  const char* name;
  int id;
  int parent;  // -1 for a root span
  int point;   // every span of one simulation point shares its index
  int thread;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  SpanLog(int thread, std::atomic<int>* next_id)
      : thread_(thread), next_id_(next_id) {}

  int Begin(const char* name, int parent, int point) {
    const int id = next_id_->fetch_add(1, std::memory_order_relaxed);
    spans_.push_back({name, id, parent, point, thread_, Clock::now(), {}});
    open_.push_back(spans_.size() - 1);
    return id;
  }
  /// Ends the innermost open span and returns its duration in seconds.
  double End() {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end = Clock::now();
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::atomic<int>* next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - epoch).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %d, \"parent\": %d, \"point\": %d}}",
                   first ? "" : ",\n", s.name, s.thread, ts, dur, s.id,
                   s.parent, s.point);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Probes: calendar events scheduled from outside at off-grid sim times. A
// probe reads public accessors of the live System and times public calls on
// its live state; it changes no model state, so the only trace it leaves in
// the RunResult is one more fired event.

// Probes per point over the whole run, plus one just before the warmup
// reset. The phase offset (1/pi of a step) keeps them off every time grid
// the model schedules on.
constexpr int kProbesPerPoint = 64;
constexpr double kProbePhase = 0.3183098861837907;
// Processing nodes sampled per probe (rotating over the machine).
constexpr int kNodesPerProbe = 8;
// Every this many probes, one also redoes a whole Snoop round.
constexpr int kSnoopEvery = 8;

struct PointTrace {
  RunResult result;
  double setup_s = 0;
  double store_s = 0;
  double probe_s = 0;  // host time spent inside probes
  std::uint64_t probes = 0;

  // Sampled by the probes.
  double edges_us = 0, wfg_us = 0, edges = 0;
  std::uint64_t edge_calls = 0;
  double snoop_us = 0;
  std::uint64_t snoop_calls = 0;
  double locked_pages = 0, waiters = 0;
  std::uint64_t lock_samples = 0;
  double ps_jobs = 0, disk_queue = 0;
  std::uint64_t node_samples = 0;
  double host_msg_queue = 0, pending = 0;
  std::uint64_t run_samples = 0;
  std::uint64_t blocked_before_warmup = 0;

  // Whole-run work counters read after the run.
  std::uint64_t blocked_total = 0;
  std::uint64_t snoop_rounds = 0;
  std::uint64_t cpu_jobs = 0;
  std::uint64_t disk_accesses = 0;
  std::uint64_t messages = 0;
  std::uint64_t batches = 0;
  std::uint64_t riders = 0;
  std::uint64_t local_fast = 0;
};

class Prober {
 public:
  Prober(ccsim::engine::System* sys, PointTrace* out, SpanLog* log,
         int run_span, int point)
      : sys_(sys), out_(out), log_(log), run_span_(run_span), point_(point) {
    const auto& cfg = sys->config();
    proc_nodes_ = cfg.machine.num_proc_nodes;
    locking_ = cfg.algorithm == ccsim::config::CcAlgorithm::kTwoPhaseLocking;
  }

  /// Schedules every probe; call before System::Run.
  void Schedule() {
    const auto& run = sys_->config().run;
    const double total = run.warmup_sec + run.measure_sec;
    const double step = total / kProbesPerPoint;
    for (int k = 0; k < kProbesPerPoint; ++k) {
      sys_->sim().At((k + kProbePhase) * step, [this, k] { Sample(k); });
    }
    if (run.warmup_sec > 0) {
      // The warmup reset clears the blocking tallies; count what they held.
      sys_->sim().At(run.warmup_sec - kProbePhase * 1e-5,
                     [this] { CountBlockedBeforeWarmup(); });
    }
  }

 private:
  void CountBlockedBeforeWarmup() {
    ++out_->probes;
    for (int id = 1; id <= proc_nodes_; ++id) {
      if (const auto* waits = sys_->cc_at(id)->blocking_times()) {
        out_->blocked_before_warmup += waits->count();
      }
    }
  }

  void Sample(int k) {
    const auto t0 = Clock::now();
    ++out_->probes;
    ++out_->run_samples;
    out_->pending += static_cast<double>(sys_->sim().pending_events());
    out_->host_msg_queue +=
        static_cast<double>(sys_->resources(0).cpu().messages_queued());
    const int nodes = std::min(kNodesPerProbe, proc_nodes_);
    for (int j = 0; j < nodes; ++j) {
      const int id = (k * kNodesPerProbe + j) % proc_nodes_ + 1;
      auto& res = sys_->resources(id);
      ++out_->node_samples;
      out_->ps_jobs += static_cast<double>(res.cpu().ps_jobs_active());
      for (int d = 0; d < res.num_disks(); ++d) {
        out_->disk_queue += static_cast<double>(res.disk(d).queue_length());
      }
      if (locking_) SampleLocks(id);
    }
    if (locking_ && k % kSnoopEvery == 0) SampleSnoop();
    out_->probe_s += SecondsSince(t0);
  }

  // Times the two calls local deadlock detection makes when a cohort
  // blocks: gathering the lock table's waits-for edges, and building the
  // graph and searching it for a cycle from a waiter.
  void SampleLocks(int id) {
    const auto* mgr =
        dynamic_cast<const ccsim::cc::TwoPhaseLockingManager*>(
            sys_->cc_at(id));
    if (mgr == nullptr) return;
    ++out_->lock_samples;
    out_->locked_pages +=
        static_cast<double>(mgr->lock_table().num_locked_pages());
    out_->waiters +=
        static_cast<double>(mgr->lock_table().num_waiting_requests());

    log_->Begin("cc.waits_for_edges", run_span_, point_);
    std::vector<ccsim::cc::WaitEdge> edges = mgr->LocalWaitsForEdges();
    out_->edges_us += 1e6 * log_->End();

    log_->Begin("cc.wfg_build", run_span_, point_);
    ccsim::cc::WaitsForGraph graph;
    graph.AddEdges(edges);
    if (!edges.empty()) graph.FindCycleFrom(edges.front().waiter);
    out_->wfg_us += 1e6 * log_->End();

    ++out_->edge_calls;
    out_->edges += static_cast<double>(edges.size());
  }

  // Times what one global detection round computes: every node's edges,
  // one graph over their union, every cycle resolved (on this copy only).
  void SampleSnoop() {
    log_->Begin("cc.snoop", run_span_, point_);
    ccsim::cc::WaitsForGraph graph;
    for (int id = 1; id <= proc_nodes_; ++id) {
      graph.AddEdges(sys_->cc_at(id)->LocalWaitsForEdges());
    }
    graph.ResolveAllDeadlocks();
    out_->snoop_us += 1e6 * log_->End();
    ++out_->snoop_calls;
  }

  ccsim::engine::System* sys_;
  PointTrace* out_;
  SpanLog* log_;
  int run_span_;
  int point_;
  int proc_nodes_ = 0;
  bool locking_ = false;
};

void ReadCounters(ccsim::engine::System& sys, PointTrace& t) {
  const int proc_nodes = sys.config().machine.num_proc_nodes;
  for (int id = 0; id <= proc_nodes; ++id) {
    auto& res = sys.resources(id);
    t.cpu_jobs += res.cpu().jobs_completed();
    for (int d = 0; d < res.num_disks(); ++d) {
      t.disk_accesses += res.disk(d).accesses_completed();
    }
  }
  t.blocked_total = t.blocked_before_warmup + t.result.blocked_waits;
  t.snoop_rounds = sys.snoop() != nullptr ? sys.snoop()->detection_rounds()
                                          : 0;
  auto& net = sys.network();
  t.messages = net.messages_sent();
  t.batches = net.batches_sent();
  t.riders = net.messages_batched();
  t.local_fast = net.local_fast_deliveries();
}

// ---------------------------------------------------------------------------
// Isolated costs: each layer's operation timed alone, outside the live
// system, at the depth the probes sampled. `events_per_op` is how many
// calendar events one operation fires, so the calendar's share can be
// taken out when attributing.

struct Cost {
  double ns = 0;             // host ns per operation, calendar included
  double events_per_op = 0;  // calendar events fired per operation
  double cpu_jobs_per_op = 0;
};

// The classic hold model: `depth` pending events, each firing event
// schedules one replacement a random delay ahead.
Cost ScheduleFire(std::size_t depth) {
  constexpr std::uint64_t kEvents = 400000;
  ccsim::sim::Simulation sim;
  ccsim::sim::RandomStream rng(1, 1);
  std::uint64_t left = kEvents;
  struct Hold {
    ccsim::sim::Simulation* sim;
    ccsim::sim::RandomStream* rng;
    std::uint64_t* left;
    void operator()() const {
      if (--*left == 0) {
        sim->Stop();
        return;
      }
      sim->After(rng->Uniform(0.0, 2.0), Hold{*this});
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.At(rng.Uniform(0.0, 2.0), Hold{&sim, &rng, &left});
  }
  const auto t0 = Clock::now();
  sim.Run();
  const double s = SecondsSince(t0);
  return {1e9 * s / static_cast<double>(sim.events_fired()), 1, 0};
}

// Processor-sharing CPU with `depth` long-running jobs: submit one short
// user job and run until it completes, repeatedly.
Cost CpuExecute(std::size_t depth) {
  constexpr int kJobs = 50000;
  constexpr double kDemand = 1e-3;
  ccsim::sim::Simulation sim;
  ccsim::resource::Cpu cpu(&sim, 1.0);
  for (std::size_t i = 0; i < depth; ++i) {
    cpu.ExecuteSeconds(1e12, ccsim::resource::CpuJobClass::kUser);
  }
  const double window = kDemand * static_cast<double>(depth + 1) * 1.001;
  const auto t0 = Clock::now();
  for (int i = 0; i < kJobs; ++i) {
    cpu.ExecuteSeconds(kDemand, ccsim::resource::CpuJobClass::kUser);
    sim.RunUntil(sim.Now() + window);
  }
  const double s = SecondsSince(t0);
  return {1e9 * s / kJobs,
          static_cast<double>(sim.events_fired()) / kJobs, 1};
}

Cost DiskAccess() {
  constexpr int kAccesses = 50000;
  ccsim::sim::Simulation sim;
  ccsim::resource::Disk disk(&sim, 0.01, 0.03,
                             ccsim::sim::RandomStream(1, 2));
  const auto t0 = Clock::now();
  for (int i = 0; i < kAccesses; ++i) {
    disk.Access(ccsim::resource::DiskOp::kRead);
    sim.RunUntil(sim.Now() + 0.031);
  }
  const double s = SecondsSince(t0);
  return {1e9 * s / kAccesses,
          static_cast<double>(sim.events_fired()) / kAccesses, 0};
}

// One remote message from the host to a processing node under `cfg`'s
// network model and costs, delivered to completion.
Cost NetworkSend(const SystemConfig& cfg) {
  constexpr int kMessages = 20000;
  const int nodes = cfg.machine.num_proc_nodes;
  ccsim::sim::Simulation sim;
  std::vector<std::unique_ptr<ccsim::resource::Cpu>> cpus;
  std::vector<ccsim::resource::Cpu*> cpu_ptrs;
  for (int id = 0; id <= nodes; ++id) {
    cpus.push_back(std::make_unique<ccsim::resource::Cpu>(
        &sim, id == 0 ? cfg.machine.host_mips : cfg.machine.node_mips));
    cpu_ptrs.push_back(cpus.back().get());
  }
  ccsim::net::Network net(&sim, cpu_ptrs, cfg.costs.inst_per_msg, cfg.net);
  const auto t0 = Clock::now();
  for (int i = 0; i < kMessages; ++i) {
    net.Send(0, 1 + i % nodes, ccsim::net::MsgTag::kPrepare, [] {}, 8);
    sim.Run();
  }
  const double s = SecondsSince(t0);
  std::uint64_t jobs = 0;
  for (const auto& c : cpus) jobs += c->jobs_completed();
  return {1e9 * s / kMessages,
          static_cast<double>(sim.events_fired()) / kMessages,
          static_cast<double>(jobs) / kMessages};
}

double GenerateNs(const SystemConfig& cfg) {
  constexpr int kSpecs = 20000;
  ccsim::db::Catalog catalog(
      cfg.database,
      ccsim::db::ComputePlacement(cfg.database, cfg.machine.num_proc_nodes,
                                  cfg.placement.degree));
  ccsim::workload::AccessGenerator gen(&cfg.workload, &catalog);
  ccsim::sim::RandomStream rng(1, 3);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpecs; ++i) {
    gen.Generate(i % cfg.workload.num_terminals, rng);
  }
  return 1e9 * SecondsSince(t0) / kSpecs;
}

// Histogram Record and Tally Record, on response-time-like values.
std::pair<double, double> StatsNs() {
  constexpr int kValues = 1 << 20;
  ccsim::sim::RandomStream rng(1, 4);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Exponential(2.0);
  ccsim::stats::LatencyHistogram hist(-20, 13);
  ccsim::stats::Tally tally;
  auto t0 = Clock::now();
  for (int i = 0; i < kValues; ++i) hist.Record(values[i & 4095]);
  const double hist_s = SecondsSince(t0);
  t0 = Clock::now();
  for (int i = 0; i < kValues; ++i) tally.Record(values[i & 4095]);
  const double tally_s = SecondsSince(t0);
  return {1e9 * hist_s / kValues, 1e9 * tally_s / kValues};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RunTraced(const Workload& workload,
               const std::vector<RunResult>& untraced, double untraced_wall_s,
               const std::string& trace_path, Report& report) {
  const std::vector<SystemConfig>& points = workload.points;
  const std::size_t n = points.size();
  std::vector<PointTrace> traces(n);

  const std::string cache_dir = std::filesystem::path(trace_path)
                                    .parent_path()
                                    .append("cache-traced-" +
                                            std::to_string(::getpid()))
                                    .string();
  ccsim::experiments::ResultCache cache(cache_dir);

  // The traced batch: the same points on the same number of workers, each
  // point wrapped in spans and probed.
  const auto epoch = Clock::now();
  std::atomic<int> next_span{0};
  const int workers =
      static_cast<int>(std::min<std::size_t>(kWorkers, n));
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (int w = 0; w < workers; ++w) {
    logs.push_back(std::make_unique<SpanLog>(w, &next_span));
  }
  std::atomic<std::size_t> next_point{0};
  {
    std::vector<std::jthread> pool;
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        SpanLog& log = *logs[static_cast<std::size_t>(w)];
        for (;;) {
          const std::size_t i = next_point.fetch_add(1);
          if (i >= n) break;
          PointTrace& t = traces[i];
          const int p = static_cast<int>(i);
          const int point_span = log.Begin("experiments.point", -1, p);
          log.Begin("engine.setup", point_span, p);
          ccsim::engine::System sys(points[i]);
          t.setup_s = log.End();
          const int run_span = log.Begin("engine.run", point_span, p);
          Prober prober(&sys, &t, &log, run_span, p);
          prober.Schedule();
          t.result = sys.Run();
          log.End();
          ReadCounters(sys, t);
          log.Begin("experiments.cache.store", point_span, p);
          cache.Store(points[i], t.result);
          t.store_s = log.End();
          log.End();  // experiments.point
        }
      });
    }
  }
  const double traced_wall_s = SecondsSince(epoch);
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  std::vector<const SpanLog*> span_logs;
  for (const auto& l : logs) span_logs.push_back(l.get());
  const bool trace_written = WriteChromeTrace(trace_path, span_logs, epoch);

  // The traced results must equal the untraced ones except for the probe
  // events.
  report.attempted += n;
  for (std::size_t i = 0; i < n; ++i) {
    const RunResult& a = untraced[i];
    const RunResult& b = traces[i].result;
    std::string why;
    if (ModelDigest(a) != ModelDigest(b)) {
      why = "traced model outputs differ from the untraced run";
    } else if (b.events != a.events + traces[i].probes) {
      why = "traced events " + std::to_string(b.events) + " != untraced " +
            std::to_string(a.events) + " + " +
            std::to_string(traces[i].probes) + " probes";
    }
    if (!why.empty()) {
      report.Fail(1, "point " + std::to_string(i) + ": " + why);
    }
  }

  // Aggregate over the batch. Counts are whole-run; model ratios use the
  // measurement window, as RunResult does.
  PointTrace sum;
  double run_wall = 0, probe_s = 0, commits = 0, attempts = 0,
         wasted = 0, response = 0, msg_weighted = 0, mpl = 0, setup = 0,
         store = 0, events = 0, submitted = 0, stats_records = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PointTrace& t = traces[i];
    const RunResult& r = untraced[i];
    run_wall += r.wall_seconds;
    events += static_cast<double>(r.events);
    probe_s += t.probe_s;
    setup += t.setup_s;
    store += t.store_s;
    const double c = static_cast<double>(r.commits);
    commits += c;
    attempts += c + static_cast<double>(r.aborts);
    wasted += r.mean_restart_wasted_time * c;
    response += r.mean_response_time * c;
    msg_weighted += r.messages_per_commit * c;
    mpl += r.mean_active_txns / static_cast<double>(n);
    submitted += static_cast<double>(r.transactions_submitted);
    // Per commit the engine records one histogram sample and seven tally
    // samples (response-time tallies and the four phases); scale the
    // window's commits to the whole run.
    const auto& run = points[i].run;
    stats_records += c * (run.warmup_sec + run.measure_sec) / run.measure_sec;
    for (auto [dst, src] : {std::pair{&sum.edges_us, t.edges_us},
                            {&sum.wfg_us, t.wfg_us},
                            {&sum.snoop_us, t.snoop_us},
                            {&sum.edges, t.edges},
                            {&sum.locked_pages, t.locked_pages},
                            {&sum.waiters, t.waiters},
                            {&sum.ps_jobs, t.ps_jobs},
                            {&sum.disk_queue, t.disk_queue},
                            {&sum.host_msg_queue, t.host_msg_queue},
                            {&sum.pending, t.pending}}) {
      *dst += src;
    }
    for (auto [dst, src] : {std::pair{&sum.edge_calls, t.edge_calls},
                            {&sum.snoop_calls, t.snoop_calls},
                            {&sum.lock_samples, t.lock_samples},
                            {&sum.node_samples, t.node_samples},
                            {&sum.run_samples, t.run_samples},
                            {&sum.probes, t.probes},
                            {&sum.blocked_total, t.blocked_total},
                            {&sum.snoop_rounds, t.snoop_rounds},
                            {&sum.cpu_jobs, t.cpu_jobs},
                            {&sum.disk_accesses, t.disk_accesses},
                            {&sum.messages, t.messages},
                            {&sum.batches, t.batches},
                            {&sum.riders, t.riders},
                            {&sum.local_fast, t.local_fast}}) {
      *dst += src;
    }
  }
  const double edges_us = Ratio(sum.edges_us, sum.edge_calls);
  const double snoop_us = Ratio(sum.snoop_us, sum.snoop_calls);
  const double wfg_us = Ratio(sum.wfg_us, sum.edge_calls);
  const double pending_mean = Ratio(sum.pending, sum.run_samples);
  const double ps_mean = Ratio(sum.ps_jobs, sum.node_samples);

  // Isolated costs at the sampled depths.
  const Cost fire =
      ScheduleFire(static_cast<std::size_t>(pending_mean + 0.5));
  // The micro-benchmarks below run on a near-empty calendar; their own
  // events cost what a shallow calendar charges.
  const Cost shallow = ScheduleFire(1);
  auto exclusive = [&](const Cost& c) {
    return std::max(0.0, c.ns - c.events_per_op * shallow.ns);
  };
  const Cost cpu = CpuExecute(static_cast<std::size_t>(ps_mean + 0.5));
  const Cost disk = DiskAccess();
  const double generate_ns = GenerateNs(points.front());
  const auto [hist_ns, tally_ns] = StatsNs();
  // One send cost per distinct network set-up in the batch.
  std::map<std::tuple<int, bool, double, double, double>, Cost> send_costs;
  double send_ns_weighted = 0, net_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SystemConfig& cfg = points[i];
    auto key = std::make_tuple(static_cast<int>(cfg.net.model),
                               cfg.net.batching, cfg.costs.inst_per_msg,
                               cfg.machine.host_mips, cfg.machine.node_mips);
    auto it = send_costs.find(key);
    if (it == send_costs.end()) {
      it = send_costs.emplace(key, NetworkSend(cfg)).first;
    }
    const double m = static_cast<double>(traces[i].messages);
    send_ns_weighted += it->second.ns * m;
    // Exclusive of the calendar events and CPU jobs it drives, which the
    // sim and resource layers account for.
    net_s += 1e-9 * m *
             std::max(0.0, exclusive(it->second) -
                               it->second.cpu_jobs_per_op * exclusive(cpu));
  }
  double placement_s = 0, catalog_s = 0;
  for (const SystemConfig& cfg : points) {
    auto t0 = Clock::now();
    auto placement = ccsim::db::ComputePlacement(
        cfg.database, cfg.machine.num_proc_nodes, cfg.placement.degree);
    placement_s += SecondsSince(t0);
    t0 = Clock::now();
    ccsim::db::Catalog catalog(cfg.database, std::move(placement));
    catalog_s += SecondsSince(t0);
  }

  // Layer attribution: count x isolated cost, against the untraced run time.
  double cc_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PointTrace& t = traces[i];
    if (t.edge_calls == 0) continue;
    // Local detection runs on every block. Blocks that end in a grant are
    // counted (blocked_total); blocks that end in an abort are not, so each
    // aborted attempt counts as one.
    const double local_us = (t.edges_us + t.wfg_us) / t.edge_calls;
    const double blocks = static_cast<double>(t.blocked_total) +
                          static_cast<double>(t.result.aborts);
    cc_s += 1e-6 * (blocks * local_us +
                    static_cast<double>(t.snoop_rounds) *
                        Ratio(t.snoop_us, t.snoop_calls));
  }
  const double sim_layer_s = 1e-9 * events * fire.ns;
  const double resource_s =
      1e-9 * (static_cast<double>(sum.cpu_jobs) * exclusive(cpu) +
              static_cast<double>(sum.disk_accesses) * exclusive(disk));
  const double workload_s = 1e-9 * submitted * generate_ns;
  const double stats_s = 1e-9 * stats_records * (hist_ns + 7 * tally_ns);
  const double explained =
      cc_s + sim_layer_s + resource_s + net_s + workload_s + stats_s;

  // cc
  report.Add("cc.waits_for_edges_us", edges_us, "us");
  report.Add("cc.wfg_build_us", wfg_us, "us");
  report.Add("cc.snoop_us", snoop_us, "us");
  report.Add("cc.wfg_edges_mean", Ratio(sum.edges, sum.edge_calls), "count");
  report.Add("cc.locked_pages_mean", Ratio(sum.locked_pages, sum.lock_samples),
             "count");
  report.Add("cc.waiters_mean", Ratio(sum.waiters, sum.lock_samples),
             "count");
  report.Add("cc.blocked_waits", static_cast<double>(sum.blocked_total),
             "count");
  report.Add("cc.snoop_rounds", static_cast<double>(sum.snoop_rounds),
             "count");
  report.Add("cc.detect_share", Ratio(cc_s, run_wall), "ratio");
  // resource
  report.Add("resource.ps_jobs_mean", ps_mean, "count");
  report.Add("resource.host_msg_queue_mean",
             Ratio(sum.host_msg_queue, sum.run_samples), "count");
  report.Add("resource.cpu_jobs", static_cast<double>(sum.cpu_jobs), "count");
  report.Add("resource.disk_accesses", static_cast<double>(sum.disk_accesses),
             "count");
  report.Add("resource.disk_queue_mean",
             Ratio(sum.disk_queue, sum.node_samples), "count");
  report.Add("resource.cpu_execute_ns", cpu.ns, "ns");
  report.Add("resource.disk_access_ns", disk.ns, "ns");
  // net
  report.Add("net.messages", static_cast<double>(sum.messages), "count");
  report.Add("net.messages_per_commit", Ratio(msg_weighted, commits), "count");
  report.Add("net.riders_per_batch", Ratio(sum.riders, sum.batches), "count");
  report.Add("net.local_fast_deliveries", static_cast<double>(sum.local_fast),
             "count");
  report.Add("net.send_ns", Ratio(send_ns_weighted, sum.messages), "ns");
  // sim
  report.Add("sim.events", events, "count");
  report.Add("sim.events_per_s", Ratio(events, run_wall), "1/s");
  report.Add("sim.ns_per_event", 1e9 * Ratio(run_wall, events), "ns");
  report.Add("sim.pending_mean", pending_mean, "count");
  report.Add("sim.schedule_fire_ns", fire.ns, "ns");
  // db / engine
  report.Add("db.placement_s", placement_s, "s");
  report.Add("db.catalog_s", catalog_s, "s");
  report.Add("engine.construct_s", setup, "s");
  // experiments
  report.Add("experiments.worker_idle_share",
             std::max(0.0, 1.0 - Ratio(run_wall, workers * untraced_wall_s)),
             "ratio");
  report.Add("experiments.cache_store_ms", 1e3 * Ratio(store, n), "ms");
  report.Add("experiments.points", static_cast<double>(n), "count");
  // txn / workload (model outputs)
  report.Add("txn.useful_ratio", Ratio(commits, attempts), "ratio");
  report.Add("txn.restart_wasted_share", Ratio(wasted, response), "ratio");
  report.Add("workload.mpl_mean", mpl, "count");
  report.Add("workload.generate_ns", generate_ns, "ns");
  // stats
  report.Add("stats.histogram_add_ns", hist_ns, "ns");
  report.Add("stats.tally_record_ns", tally_ns, "ns");
  // trace and attribution
  report.Add("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
  report.Add("trace.probes", static_cast<double>(sum.probes), "count");
  report.Add("trace.probe_s", probe_s, "s");
  report.Add("trace.explained_share", Ratio(explained, run_wall), "ratio");
  const std::pair<const char*, double> layers[] = {
      {"attr.cc_share", cc_s},           {"attr.sim_share", sim_layer_s},
      {"attr.resource_share", resource_s}, {"attr.net_share", net_s},
      {"attr.workload_share", workload_s}, {"attr.stats_share", stats_s}};
  for (const auto& [name, seconds] : layers) {
    report.Add(name, Ratio(seconds, run_wall), "ratio");
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "explained %.1f%% of %.3f s run time (target >= 80%%); "
                "%.3f s unexplained: coroutines, the txn layer and lock-table "
                "request/release have no isolated cost",
                100 * Ratio(explained, run_wall), run_wall,
                run_wall - explained);
  report.Note(line);
  report.Note((trace_written ? "spans written to " : "could not write ") +
              trace_path);
}

}  // namespace perfbench
