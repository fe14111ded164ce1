// ccsim_perfbench: runs one regime workload and reports its host-time
// metrics. See perfbench/README.md for the workloads and metrics.
//
//   ccsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>]
//
// --trace 0 repeats the workload's batch until --seconds have passed and
// prints the end-to-end metrics (medians over the repetitions). --trace 1
// runs the batch once untraced and once with probes, and prints the
// per-layer metrics. Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Each untraced batch runs in a forked child process, so the child's peak
// RSS is the batch's memory and a crash or hang of one batch fails its
// points instead of the whole benchmark.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccsim/engine/system.h"
#include "ccsim/experiments/cache.h"
#include "ccsim/experiments/runner.h"
#include "report.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccsim::engine::RunResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return o;
}

// ---------------------------------------------------------------------------
// One untraced batch in a child process.

struct BatchOutcome {
  std::string error;  // empty when the child ran the batch to the end
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::vector<RunResult> results;
};

// Child side: set-up (configs, cache, one System per point), then the batch
// through ParallelRunner with a cold cache. Returns the report for the parent.
std::string ChildBatch(const Options& opts, bool audit,
                       const std::string& cache_dir) {
  auto t0 = Clock::now();
  Workload w = *MakeWorkload(opts.workload, opts.seed);
  if (audit) {
    ccsim::config::SystemConfig cfg = w.points[w.audit_point];
    cfg.run.enable_audit = true;
    w.points = {cfg};
  }
  ccsim::experiments::ResultCache cache(cache_dir);
  for (const auto& cfg : w.points) ccsim::engine::System system(cfg);
  const double setup_s = SecondsSince(t0);

  auto t1 = Clock::now();
  ccsim::experiments::ParallelRunner runner(cache, {kWorkers, false});
  std::vector<RunResult> results = runner.Run(w.points);
  const double wall_s = SecondsSince(t1);

  std::ostringstream out;
  out.precision(17);
  out << "setup_s " << setup_s << "\nwall_s " << wall_s << "\npoints "
      << results.size() << "\n";
  for (const RunResult& r : results) {
    std::string text = ccsim::experiments::SerializeResult(r);
    out << text.size() << "\n" << text;
  }
  return out.str();
}

std::optional<BatchOutcome> ParseChildReport(const std::string& text) {
  std::istringstream in(text);
  BatchOutcome b;
  std::string key;
  std::size_t points = 0;
  if (!(in >> key >> b.setup_s) || key != "setup_s") return std::nullopt;
  if (!(in >> key >> b.wall_s) || key != "wall_s") return std::nullopt;
  if (!(in >> key >> points) || key != "points") return std::nullopt;
  for (std::size_t i = 0; i < points; ++i) {
    std::size_t len = 0;
    if (!(in >> len)) return std::nullopt;
    in.get();  // the newline after the length
    std::string body(len, '\0');
    if (!in.read(body.data(), static_cast<std::streamsize>(len))) {
      return std::nullopt;
    }
    auto r = ccsim::experiments::ParseResult(body);
    if (!r) return std::nullopt;
    b.results.push_back(*r);
  }
  return b;
}

// Forks a child that runs the batch (or, with `audit`, the audit point);
// kills it after `timeout_s`. The cache directory is removed afterwards.
BatchOutcome RunBatchInChild(const Options& opts, bool audit,
                             double timeout_s) {
  static int batch_no = 0;
  const std::string cache_dir = opts.work_dir + "/cache-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(batch_no++);
  BatchOutcome failed;
  int fds[2];
  if (::pipe(fds) != 0) {
    failed.error = "pipe failed";
    return failed;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    failed.error = "fork failed";
    return failed;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(fds[0]);
    const std::string report = ChildBatch(opts, audit, cache_dir);
    std::size_t off = 0;
    while (off < report.size()) {
      ssize_t n = ::write(fds[1], report.data() + off, report.size() - off);
      if (n <= 0) ::_exit(3);
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);

  std::string text;
  bool timed_out = false;
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    const double left = std::chrono::duration<double>(deadline - Clock::now())
                            .count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[65536];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child closed its end
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  if (timed_out) {
    failed.error = "batch exceeded the host-time watchdog";
    return failed;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.error = WIFSIGNALED(status)
                       ? "batch crashed with signal " +
                             std::to_string(WTERMSIG(status))
                       : "batch exited with status " +
                             std::to_string(WEXITSTATUS(status));
    return failed;
  }
  auto parsed = ParseChildReport(text);
  if (!parsed) {
    failed.error = "unreadable batch report";
    return failed;
  }
  parsed->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return *parsed;
}

// ---------------------------------------------------------------------------

// Host-time watchdog per batch: a batch that takes longer than this is
// killed and all of its points fail. The largest batch takes about 3 s.
constexpr double kBatchTimeoutS = 60.0;

// Repetitions of the batch in a --trace 0 run: at least this many even when
// --seconds is short, so every reported metric is a median.
constexpr int kMinRepetitions = 3;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: ccsim_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  const Options& opts = *parsed;
  auto workload = MakeWorkload(opts.workload, opts.seed);
  if (!workload) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr, "unknown workload '%s'; workloads:%s\n",
                 opts.workload.c_str(), names.c_str());
    return 2;
  }
  std::filesystem::create_directories(opts.work_dir);
  const Workload& w = *workload;
  const std::size_t n = w.points.size();

  Report report(opts.workload);
  // Every untraced batch's results must match the first batch's exactly
  // (determinism) and pass CheckPoint.
  std::vector<std::uint64_t> first_digests;
  auto check_batch = [&](const BatchOutcome& b) {
    report.attempted += n;
    if (!b.error.empty() || b.results.size() != n) {
      report.Fail(n, b.error.empty() ? "wrong result count" : b.error);
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::string why = CheckPoint(w.name, i, opts.seed, b.results[i]);
      const std::uint64_t d = ModelDigest(b.results[i]);
      if (first_digests.size() < n) {
        first_digests.push_back(d);
      } else if (why.empty() && d != first_digests[i]) {
        why = "differs from the first repetition";
      }
      if (!why.empty()) {
        report.Fail(1, "point " + std::to_string(i) + ": " + why);
      }
    }
    return true;
  };

  auto t_start = Clock::now();
  if (!opts.trace) {
    std::vector<double> wall, speed, slowest, setup, rss;
    for (int rep = 0;
         rep < kMinRepetitions || SecondsSince(t_start) < opts.seconds;
         ++rep) {
      BatchOutcome b = RunBatchInChild(opts, false, kBatchTimeoutS);
      if (!check_batch(b)) break;
      double sim = 0, point_wall = 0, slow = 0;
      for (const RunResult& r : b.results) {
        sim += r.sim_seconds;
        point_wall += r.wall_seconds;
        slow = std::max(slow, r.wall_seconds);
      }
      wall.push_back(b.wall_s);
      speed.push_back(sim / point_wall);
      slowest.push_back(slow);
      setup.push_back(b.setup_s);
      rss.push_back(b.peak_rss_mb);
    }
    // One audited point per run: the serializability audit must pass.
    BatchOutcome audit = RunBatchInChild(opts, true, kBatchTimeoutS);
    report.attempted += 1;
    if (!audit.error.empty() || audit.results.size() != 1) {
      report.Fail(1, "audit point: " + (audit.error.empty()
                                            ? std::string("no result")
                                            : audit.error));
    } else if (!audit.results[0].audited || !audit.results[0].serializable) {
      report.Fail(1, "audit point not serializable: " +
                         audit.results[0].audit_note);
    }
    if (!wall.empty()) {
      report.Add("wall_s", Median(wall), "s");
      report.Add("sim_speed", Median(speed), "sim-s/s");
      report.Add("slowest_point_s", Median(slowest), "s");
      report.Add("setup_s", Median(setup), "s");
      report.Add("peak_rss_mb", Median(rss), "MB");
    }
    if (opts.seed == kScoringSeed) {
      // The values to pin in workloads.cc when a model change is intended.
      std::string pins = "model digests:";
      char hex[24];
      for (std::uint64_t d : first_digests) {
        std::snprintf(hex, sizeof(hex), " 0x%016llx",
                      static_cast<unsigned long long>(d));
        pins += hex;
      }
      report.Note(pins);
    }
    std::string reps = "wall_s per repetition:";
    for (double v : wall) reps += " " + std::to_string(v);
    report.Note(reps);
  } else {
    BatchOutcome untraced = RunBatchInChild(opts, false, kBatchTimeoutS);
    if (check_batch(untraced)) {
      RunTraced(w, untraced.results, untraced.wall_s,
                opts.work_dir + "/trace-" + w.name + "-seed" +
                    std::to_string(opts.seed) + ".json",
                report);
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
