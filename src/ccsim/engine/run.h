#ifndef CCSIM_ENGINE_RUN_H_
#define CCSIM_ENGINE_RUN_H_

#include <cstdint>
#include <string>

#include "ccsim/config/params.h"

namespace ccsim::engine {

/// Steady-state metrics of one simulation run, gathered over the measurement
/// window (after warmup deletion). The paper's four main metrics (Sec 4.1)
/// are response time, throughput, and the speedups derived from them by the
/// experiment harness; the auxiliary metrics (utilizations, abort ratio,
/// blocking time) are here too.
struct RunResult {
  // Primary metrics.
  double throughput = 0.0;          // committed transactions per second
  double mean_response_time = 0.0;  // origin to successful completion, sec
  double rt_ci_half_width = 0.0;    // 95% batch-means CI half width
  double max_response_time = 0.0;
  double rt_p50 = 0.0;  // response-time percentiles (log-bucketed histogram
  double rt_p90 = 0.0;  // estimates, <= ~1.6% relative error)
  double rt_p99 = 0.0;
  double rt_p999 = 0.0;

  // Per-phase response-time decomposition, mean seconds per committed
  // transaction. The four phases partition the response time exactly:
  //   restart-wasted : origin to the start of the finally-successful
  //                    attempt (all failed attempts + restart delays; 0 for
  //                    first-attempt commits)
  //   queue          : host startup queue + startup CPU of that attempt
  //   exec           : cohorts executing (reads, writes, CC waits)
  //   commit-wait    : the 2PC prepare/commit rounds
  // so mean_queue + mean_exec + mean_commit_wait + mean_restart_wasted ==
  // mean_response_time (up to FP rounding).
  double mean_queue_time = 0.0;
  double mean_exec_time = 0.0;
  double mean_commit_wait_time = 0.0;
  double mean_restart_wasted_time = 0.0;

  /// Measured multiprogramming level: time-weighted mean number of
  /// terminals with a transaction in the system (the x-axis actually
  /// offered to the machine, vs the configured NumTerminals).
  double mean_active_txns = 0.0;

  // Auxiliary metrics.
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;   // aborted attempts
  double abort_ratio = 0.0;   // aborts per commit (Sec 4.1)
  // Abort breakdown by cause (same window as `aborts`).
  std::uint64_t aborts_local_deadlock = 0;
  std::uint64_t aborts_global_deadlock = 0;
  std::uint64_t aborts_wound = 0;
  std::uint64_t aborts_timestamp = 0;
  std::uint64_t aborts_certification = 0;
  std::uint64_t aborts_die = 0;      // wait-die
  std::uint64_t aborts_timeout = 0;  // timeout-based blocking
  double host_cpu_util = 0.0;
  double proc_cpu_util = 0.0;  // mean over processing nodes
  double disk_util = 0.0;      // mean over processing-node disks
  double mean_blocking_time = 0.0;  // lock/queue waits (2PL, WW, BTO reads)
  std::uint64_t blocked_waits = 0;
  double messages_per_commit = 0.0;

  // Fault metrics (all trivial when FaultParams are zero: availability 1,
  // goodput == throughput, counters 0).
  double availability = 1.0;  // time-weighted fraction of proc nodes up
  double goodput = 0.0;       // commits per second of node-up capacity
  std::uint64_t node_crashes = 0;
  std::uint64_t messages_dropped = 0;  // transmissions lost (pre-retry)
  std::uint64_t messages_lost = 0;     // gave up after retries / node down
  std::uint64_t aborts_node_crash = 0;
  std::uint64_t aborts_comm_timeout = 0;
  std::uint64_t forced_terminations = 0;  // 2PC gave up resending a decision

  // Overload metrics (v8; all trivial without OverloadParams: offered ==
  // admitted == transactions_submitted, shed and abandon counters 0,
  // goodput_deadline == throughput, queue stats 0).
  std::uint64_t txns_offered = 0;    // arrivals offered to the system (run)
  std::uint64_t txns_admitted = 0;   // admitted into the engine (run)
  std::uint64_t txns_shed = 0;       // dropped by the admission policy (run)
  /// Deadline misses in the measurement window: transactions abandoned
  /// because their deadline passed plus commits that landed after it.
  std::uint64_t txns_deadline_missed = 0;
  /// Transactions abandoned in the measurement window after spending their
  /// restart budget (OverloadParams::max_restarts).
  std::uint64_t txns_retry_exhausted = 0;
  /// Commits that met their deadline per second of measured time; equals
  /// throughput when no deadline is configured.
  double goodput_deadline = 0.0;
  double admission_queue_mean = 0.0;  // time-weighted mean queue depth
  std::uint64_t admission_queue_max = 0;  // peak depth in the window

  // Network-model metrics (v9; all zero without NetParams: the default
  // kSwitch model sends no batches, takes no fast-path deliveries, posts no
  // RDMA ops, and counts no wire bytes or link waits).
  std::uint64_t net_batches_sent = 0;   // wire messages carrying a batch
  std::uint64_t net_msgs_batched = 0;   // piggybacked rider messages
  /// Local hand-offs delivered synchronously, bypassing the calendar.
  std::uint64_t net_local_fast_deliveries = 0;
  std::uint64_t net_rdma_ops = 0;       // one-sided ops that crossed the wire
  double net_bytes_sent = 0.0;          // wire bytes (kBandwidth/kRdma)
  double net_link_wait_sec_mean = 0.0;  // mean link-queue wait (kBandwidth)

  // Run accounting.
  std::uint64_t transactions_submitted = 0;
  std::uint64_t live_at_end = 0;
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;

  // Audit (only when RunParams::enable_audit).
  bool audited = false;
  bool serializable = true;
  // Not in the result cache, which stores the numeric verdict above.
  std::string audit_note;
};

/// Validates `config`, builds a System, runs warmup + measurement, and
/// extracts the metrics. Aborts the process on an invalid configuration
/// (use SystemConfig::Validate() first for recoverable handling).
RunResult RunSimulation(const config::SystemConfig& config);

}  // namespace ccsim::engine

#endif  // CCSIM_ENGINE_RUN_H_
