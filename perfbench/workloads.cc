#include "workloads.h"

#include <cmath>
#include <map>
#include <sstream>

#include "ccsim/experiments/cache.h"
#include "ccsim/experiments/experiments.h"

namespace perfbench {

using ccsim::config::CcAlgorithm;
using ccsim::config::SystemConfig;
namespace experiments = ccsim::experiments;

namespace {

void SetWindow(SystemConfig& cfg, double warmup, double measure,
               std::uint64_t seed) {
  cfg.run.warmup_sec = warmup;
  cfg.run.measure_sec = measure;
  cfg.run.seed = seed;
}

// Exp1 on the paper's 8-node machine: the five engines of the figures
// across the think-time range, the shape of the figure suite. The busiest
// (shortest think time) points come first so the two workers finish
// together, as a figure run ordered longest-first would.
Workload PaperSweep(std::uint64_t seed) {
  Workload w{"paper_sweep", {}, 0};
  for (double think : {0.0, 8.0, 30.0, 60.0, 120.0}) {
    for (CcAlgorithm alg : ccsim::config::kAllAlgorithms) {
      SystemConfig cfg = experiments::Exp1Config(8, alg, think);
      SetWindow(cfg, 20, 80, seed);
      w.points.push_back(cfg);
    }
  }
  w.audit_point = 5;  // 2PL at think time 8
  return w;
}

// Uncontrolled 2PL far past the ~7.5 tx/s open-system knee: MPL in the
// hundreds, large waiter sets, host time in lock-table edge gathering and
// graph rebuilds. Near the knee (10-12 tx/s) whether and when a run
// collapses depends on the seed, and host time with it (MPL 70-190 across
// seeds at 10 tx/s); at 20 tx/s every run collapses within seconds. The
// batch is independent replications of that point, on sub-seeds derived
// from the seed, so one seed's luck does not set the batch's cost.
Workload Overload2pl(std::uint64_t seed) {
  constexpr int kReplications = 6;
  Workload w{"overload_2pl", {}, 0};
  for (int i = 0; i < kReplications; ++i) {
    SystemConfig cfg =
        experiments::OverloadConfig(CcAlgorithm::kTwoPhaseLocking, 20.0,
                                    /*admission=*/false);
    SetWindow(cfg, 5, 25, seed * kReplications + i);
    w.points.push_back(cfg);
  }
  return w;
}

// The host's message CPU saturated: plain sends, the batched fast path and
// a bandwidth-limited link queue use the network layer three ways.
Workload MessageBound(std::uint64_t seed) {
  Workload w{"message_bound", {}, 0};
  for (bool batching : {false, true}) {
    SystemConfig cfg =
        experiments::MessageHeavyConfig(CcAlgorithm::kTwoPhaseLocking,
                                        batching);
    SetWindow(cfg, 10, 60, seed);
    w.points.push_back(cfg);
  }
  SystemConfig bw = experiments::WithNetModel(
      experiments::Exp1Config(8, CcAlgorithm::kTwoPhaseLocking, 8.0),
      ccsim::config::NetModel::kBandwidth);
  SetWindow(bw, 100, 400, seed);
  w.points.push_back(bw);
  return w;
}

// A 1024-node machine with millions of pages: large set-up, large memory,
// a deep calendar.
Workload Megascale(std::uint64_t seed) {
  Workload w{"megascale", {}, 0};
  SystemConfig cfg = experiments::MegascaleConfig(
      1024, CcAlgorithm::kTwoPhaseLocking, 8.0);
  SetWindow(cfg, 5, 15, seed);
  w.points.push_back(cfg);
  return w;
}

// Pinned ModelDigest per point for kScoringSeed, in point order. The pins
// depend on the exact floating-point behaviour of x86-64 libstdc++ (like
// the determinism goldens in tests/), so they are asserted only there.
const std::map<std::string, std::vector<std::uint64_t>>& PinnedDigests() {
  static const std::map<std::string, std::vector<std::uint64_t>> kPins = {
      {"paper_sweep",
       {0x069a309bf1ff6e32ull, 0x7b7f335075c4b3ceull, 0xe1b7c1c827e399deull,
        0x5a721ebf43624e55ull, 0x773d7ec137a026c7ull, 0x8f077508e59b5f00ull,
        0x468e76c5bb62e83full, 0x4068fe8b565e47b9ull, 0xfd51bbeb05ee031aull,
        0x2483ba6e63885e57ull, 0xc84ad3450bf8e821ull, 0xfd51ec7f8cfc55e2ull,
        0x42b311ecc204ef59ull, 0xe6c91d74610c23fbull, 0xb49b790110732f3aull,
        0x62843579fec339e6ull, 0x97bb9132818c3277ull, 0x776ccf7234bd954eull,
        0x917c5772ddaa80f2ull, 0xb373d916e732c548ull, 0x7d6b3f52cc6a59cbull,
        0x8c7e0afadcec0b9full, 0x8c7e0afadcec0b9full, 0x8c7e0afadcec0b9full,
        0x8c7e0afadcec0b9full}},
      {"overload_2pl",
       {0x67744b505ce344dbull, 0x4ca705c5aeceb6b8ull, 0x40482dbcc3b8e15aull,
        0x4997ad1653bf97acull, 0x01aa74c6f64a0361ull, 0x67caed9e2cd61166ull}},
      {"message_bound",
       {0x30f16399c9cd9b39ull, 0x39c9918bd6a932c9ull, 0x480232747a86f71cull}},
      {"megascale",
       {0x371b5a79c720b098ull}},
  };
  return kPins;
}

bool PinsApply() {
#if defined(__GLIBCXX__) && defined(__x86_64__)
  return true;
#else
  return false;
#endif
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_sweep", "overload_2pl", "message_bound", "megascale"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "paper_sweep") return PaperSweep(seed);
  if (name == "overload_2pl") return Overload2pl(seed);
  if (name == "message_bound") return MessageBound(seed);
  if (name == "megascale") return Megascale(seed);
  return std::nullopt;
}

std::uint64_t ModelDigest(const ccsim::engine::RunResult& r) {
  std::uint64_t hash = 14695981039346656037ull;
  std::istringstream lines(experiments::SerializeResult(r));
  for (std::string line; std::getline(lines, line);) {
    std::string key = line.substr(0, line.find(' '));
    if (key == "wall_seconds" || key == "events") continue;
    for (char c : line + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string CheckPoint(const std::string& workload, std::size_t index,
                       std::uint64_t seed,
                       const ccsim::engine::RunResult& r) {
  if (seed == kScoringSeed && PinsApply()) {
    const auto& pins = PinnedDigests().at(workload);
    if (index < pins.size()) {
      if (ModelDigest(r) == pins[index]) return "";
      std::ostringstream why;
      why << "model digest 0x" << std::hex << ModelDigest(r)
          << " != pinned 0x" << pins[index];
      return why.str();
    }
  }
  if (r.commits == 0) return "no commits";
  const double phases = r.mean_queue_time + r.mean_exec_time +
                        r.mean_commit_wait_time + r.mean_restart_wasted_time;
  if (!(std::abs(phases - r.mean_response_time) <=
        1e-9 * std::max(1.0, r.mean_response_time))) {
    std::ostringstream why;
    why.precision(17);
    why << "phase means sum to " << phases << ", mean response time is "
        << r.mean_response_time;
    return why.str();
  }
  return "";
}

}  // namespace perfbench
