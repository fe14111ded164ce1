#include "ccsim/experiments/cache.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "ccsim/sim/check.h"

namespace ccsim::experiments {

namespace {
constexpr char kDefaultDir[] = "ccsim_bench_cache";
constexpr int kFormatVersion = 9;  // bump when RunResult fields change

// The cache schema: one row per serialized RunResult field, in file order.
// Serialization and parsing both walk this table, so the two cannot drift
// apart and the field count in the trailer is derived, not hand-maintained.
// Integer counters are written and parsed as integers: routing them through
// double would silently corrupt values above 2^53.
//
// A row names a member once. D/U/B stringize it into the key and take its
// member pointer, so a key cannot differ from its member, a row of the wrong
// type or naming a removed member does not compile, and the static_asserts
// below reject a missing or duplicated row. Changing the schema means editing
// RunResult, adding a row here and bumping kFormatVersion; the committed
// cache then fails CommittedCache.EveryEntryRoundTrips until it is
// regenerated.
enum class FieldType { kDouble, kU64, kBool };

struct Field {
  const char* key;
  FieldType type;
  double engine::RunResult::*d;
  std::uint64_t engine::RunResult::*u;
  bool engine::RunResult::*b;
};

using R = engine::RunResult;
#define D(m) Field{#m, FieldType::kDouble, &R::m, nullptr, nullptr}
#define U(m) Field{#m, FieldType::kU64, nullptr, &R::m, nullptr}
#define B(m) Field{#m, FieldType::kBool, nullptr, nullptr, &R::m}
constexpr Field kFields[] = {
    D(throughput),
    D(mean_response_time),
    D(rt_ci_half_width),
    D(max_response_time),
    D(rt_p50),
    D(rt_p90),
    D(rt_p99),
    U(commits),
    U(aborts),
    D(abort_ratio),
    U(aborts_local_deadlock),
    U(aborts_global_deadlock),
    U(aborts_wound),
    U(aborts_timestamp),
    U(aborts_certification),
    U(aborts_die),
    U(aborts_timeout),
    D(host_cpu_util),
    D(proc_cpu_util),
    D(disk_util),
    D(mean_blocking_time),
    U(blocked_waits),
    D(messages_per_commit),
    U(transactions_submitted),
    U(live_at_end),
    U(events),
    D(sim_seconds),
    D(wall_seconds),
    B(audited),
    B(serializable),
    // v6: fault metrics.
    D(availability),
    D(goodput),
    U(node_crashes),
    U(messages_dropped),
    U(messages_lost),
    U(aborts_node_crash),
    U(aborts_comm_timeout),
    U(forced_terminations),
    // v7: tail-latency metrics.
    D(rt_p999),
    D(mean_queue_time),
    D(mean_exec_time),
    D(mean_commit_wait_time),
    D(mean_restart_wasted_time),
    D(mean_active_txns),
    // v8: overload metrics.
    U(txns_offered),
    U(txns_admitted),
    U(txns_shed),
    U(txns_deadline_missed),
    U(txns_retry_exhausted),
    D(goodput_deadline),
    D(admission_queue_mean),
    U(admission_queue_max),
    // v9: network-model metrics.
    U(net_batches_sent),
    U(net_msgs_batched),
    U(net_local_fast_deliveries),
    U(net_rdma_ops),
    D(net_bytes_sent),
    D(net_link_wait_sec_mean),
};
#undef D
#undef U
#undef B
constexpr std::size_t kNumFields = std::size(kFields);
static_assert(kNumFields < 64, "seen-field mask below is a uint64");

// Number of members of aggregate T: the largest N for which T{a1, ..., aN}
// compiles with arguments that convert to any member type.
struct AnyField {
  template <typename T>
  operator T() const;  // never defined: only named in unevaluated checks
};

template <typename T, typename... Args>
constexpr std::size_t FieldCount() {
  if constexpr (requires { T{Args{}..., AnyField{}}; }) {
    return FieldCount<T, Args..., AnyField>();
  } else {
    return sizeof...(Args);
  }
}

struct FieldCountProbe {
  double a;
  std::string b;
  bool c;
};
static_assert(FieldCount<FieldCountProbe>() == 3, "FieldCount is broken");

// Every RunResult member has a row, except audit_note: free-form diagnostic
// text, while the cache stores the numeric audit verdict.
static_assert(FieldCount<engine::RunResult>() == kNumFields + 1,
              "kFields needs one row per RunResult member");

constexpr bool KeysAreUnique() {
  for (std::size_t i = 0; i < kNumFields; ++i) {
    for (std::size_t j = i + 1; j < kNumFields; ++j) {
      if (std::string_view(kFields[i].key) == kFields[j].key) return false;
    }
  }
  return true;
}
static_assert(KeysAreUnique(), "duplicate row in kFields");

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token[0] == '-' || token[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

ResultCache::ResultCache() {
  const char* env = std::getenv("CCSIM_CACHE_DIR");
  dir_ = env != nullptr && env[0] != '\0' ? env : kDefaultDir;
}

ResultCache::ResultCache(std::string directory) : dir_(std::move(directory)) {}

std::string ResultCache::PathFor(const config::SystemConfig& config) const {
  char name[64];
  std::snprintf(name, sizeof(name), "v%d_%016" PRIx64 ".result",
                kFormatVersion, config.Fingerprint());
  return dir_ + "/" + name;
}

std::string SerializeResult(const engine::RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const Field& f : kFields) {
    out << f.key << ' ';
    switch (f.type) {
      case FieldType::kDouble: out << r.*(f.d); break;
      case FieldType::kU64: out << r.*(f.u); break;
      case FieldType::kBool: out << (r.*(f.b) ? 1 : 0); break;
    }
    out << '\n';
  }
  out << "field_count " << kNumFields << '\n';
  return out.str();
}

std::optional<engine::RunResult> ParseResult(const std::string& text) {
  engine::RunResult r;
  std::istringstream in(text);
  std::string key;
  std::string token;
  std::uint64_t fields = 0;
  std::uint64_t seen = 0;
  while (in >> key) {
    if (!(in >> token)) return std::nullopt;  // key without a value
    if (key == "field_count") {
      // The trailer is written last; anything after it, a count mismatch,
      // or missing known fields marks a truncated or corrupt file.
      std::uint64_t expected = 0;
      if (!ParseU64(token, &expected)) return std::nullopt;
      if (expected != fields) return std::nullopt;
      if (in >> key) return std::nullopt;
      constexpr std::uint64_t kAllSeen = (std::uint64_t{1} << kNumFields) - 1;
      if (seen != kAllSeen) return std::nullopt;
      return r;
    }
    ++fields;
    bool known = false;
    for (std::size_t i = 0; i < kNumFields; ++i) {
      if (key != kFields[i].key) continue;
      known = true;
      const Field& f = kFields[i];
      switch (f.type) {
        case FieldType::kDouble:
          if (!ParseDouble(token, &(r.*(f.d)))) return std::nullopt;
          break;
        case FieldType::kU64:
          if (!ParseU64(token, &(r.*(f.u)))) return std::nullopt;
          break;
        case FieldType::kBool: {
          std::uint64_t v = 0;
          if (!ParseU64(token, &v)) return std::nullopt;
          r.*(f.b) = v != 0;
          break;
        }
      }
      seen |= std::uint64_t{1} << i;
      break;
    }
    if (!known) {
      // Unknown key: tolerated for forward compatibility (a newer writer's
      // extra fields still count toward its field_count trailer).
      double ignored = 0;
      std::uint64_t ignored_u = 0;
      if (!ParseDouble(token, &ignored) && !ParseU64(token, &ignored_u))
        return std::nullopt;
    }
  }
  return std::nullopt;  // no trailer: truncated file
}

std::optional<engine::RunResult> ResultCache::Load(
    const config::SystemConfig& config) const {
  const std::string path = PathFor(config);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto result = ParseResult(buffer.str());
  if (!result) {
    // The entry exists but does not parse (truncated write, disk hiccup,
    // manual editing). Quarantine it under a distinct suffix so the slot
    // frees up for a clean re-run while the bytes stay available for
    // inspection, and say so once instead of silently re-simulating forever.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccsim: corrupt cache entry quarantined: %s -> "
                   "%s.quarantined (rename %s)\n",
                   path.c_str(), path.c_str(),
                   ec ? ec.message().c_str() : "ok");
    }
  }
  return result;
}

bool ResultCache::Store(const config::SystemConfig& config,
                        const engine::RunResult& result) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = PathFor(config);
  // Unique per-writer temp name: concurrent writers (worker threads, or
  // whole processes sharing the cache directory) must never interleave
  // output into one temp file. pid disambiguates processes, the sequence
  // number disambiguates threads within one.
  static std::atomic<std::uint64_t> temp_seq{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    temp_seq.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp = path + suffix;
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << SerializeResult(result);
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // Publishing failed; don't leave the temp file behind. The caller falls
    // back to Load in case a concurrent writer published meanwhile.
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  return true;
}

engine::RunResult ResultCache::GetOrRun(
    const config::SystemConfig& config) const {
  const std::uint64_t key = config.Fingerprint();
  for (;;) {
    if (auto cached = Load(config)) return *cached;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (inflight_.count(key) > 0) {
        // Another thread is simulating this point: wait for it to publish,
        // then loop back and load its result instead of duplicating work.
        cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
        continue;
      }
      inflight_.insert(key);
    }
    simulations_run_.fetch_add(1, std::memory_order_relaxed);
    engine::RunResult result = engine::RunSimulation(config);
    const bool stored = Store(config, result);
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    cv_.notify_all();
    if (!stored) {
      // Prefer the published entry when one exists so every caller of this
      // key observes one canonical result.
      if (auto other = Load(config)) return *other;
    }
    return result;
  }
}

}  // namespace ccsim::experiments
