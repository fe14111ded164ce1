// The benchmark's four regime workloads and the checks on their outputs.
//
// A workload is a fixed batch of simulation points (SystemConfigs) that the
// benchmark runs through experiments::ParallelRunner. Every point of a batch
// takes the benchmark's --seed as its master seed, so one seed names one set
// of inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"

namespace perfbench {

/// Worker threads for every batch (the benchmark runs on a 4-core budget
/// and leaves half of it to the host).
inline constexpr int kWorkers = 2;

/// The seed whose per-point model digests are pinned in workloads.cc.
inline constexpr std::uint64_t kScoringSeed = 42;

struct Workload {
  std::string name;
  std::vector<ccsim::config::SystemConfig> points;
  /// Index of the point re-run once with run.enable_audit.
  std::size_t audit_point = 0;
};

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The named workload with every point's master seed set to `seed`, or
/// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed);

/// FNV-1a over the serialized RunResult minus `wall_seconds` (host time)
/// and `events` (event fusion may change the count without changing the
/// model). Every other field - every model output - folds in.
std::uint64_t ModelDigest(const ccsim::engine::RunResult& r);

/// Checks point `index` of `workload` run with master seed `seed`: the
/// pinned digest for the scoring seed (on the platform the pins were made
/// on), invariants otherwise. Returns an empty string when the point is
/// correct, else the reason it is not.
std::string CheckPoint(const std::string& workload, std::size_t index,
                       std::uint64_t seed,
                       const ccsim::engine::RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
