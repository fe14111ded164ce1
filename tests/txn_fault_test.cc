// Protocol-hardening tests for the fault layer: lost 2PC messages resolve
// via timeouts and presumed abort, cohort crashes drain in-flight state and
// the victims restart, exhausted decision resends force termination without
// leaving locks behind, a deliberately wedged run dies through the
// simulation watchdog with a diagnostic dump, and runs with nonzero fault
// rates are bit-for-bit deterministic.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ccsim/engine/run.h"
#include "ccsim/engine/system.h"
#include "ccsim/experiments/cache.h"
#include "test_util.h"

namespace ccsim::txn {
namespace {

using engine::System;

// Same shape as the txn_protocol_test helper: one cohort per (node,
// page-count) entry, distinct pages, write_mask bit i marks access i of
// every cohort as an update.
workload::TransactionSpec MakeSpec(
    const std::vector<std::pair<NodeId, int>>& cohorts,
    unsigned write_mask = 0) {
  workload::TransactionSpec spec;
  spec.exec_pattern = config::ExecPattern::kParallel;
  int page = 0;
  for (auto [node, count] : cohorts) {
    workload::CohortSpec c;
    c.node = node;
    for (int i = 0; i < count; ++i) {
      FileId file = (node - 1) * 4;
      c.accesses.push_back(workload::PageAccess{PageRef{file, page++},
                                                (write_mask & (1u << i)) != 0});
    }
    spec.cohorts.push_back(std::move(c));
  }
  return spec;
}

// 4 proc nodes, 1-way placement, 2PC timeouts armed. The tiny drop
// probability only switches the fault layer on; the tests install their own
// targeted drop hooks on the network.
config::SystemConfig FaultProtocolConfig(double msg_timeout_sec) {
  config::SystemConfig cfg = config::PaperBaseConfig();
  cfg.algorithm = config::CcAlgorithm::kNoDc;
  cfg.machine.num_proc_nodes = 4;
  cfg.placement.degree = 1;
  cfg.database.num_relations = 4;
  cfg.database.partitions_per_relation = 4;
  cfg.database.pages_per_file = 100;
  cfg.workload.num_terminals = 4;
  cfg.run.enable_audit = true;
  cfg.faults.msg_drop_prob = 1e-12;
  cfg.faults.msg_timeout_sec = msg_timeout_sec;
  return cfg;
}

TEST(TxnFault, LostVoteTimesOutIntoPresumedAbortThenCommits) {
  // The cohort at node 1 "never replies" to PREPARE: its VOTE is eaten once.
  // The coordinator's phase timer must fire, presume abort, and the restart
  // must commit.
  bool drop_vote = true;
  System sys(FaultProtocolConfig(/*msg_timeout_sec=*/1.0));
  sys.network().SetFaultPolicy(net::Network::FaultPolicy{
      .should_drop =
          [&drop_vote](NodeId from, NodeId, net::MsgTag tag) {
            if (tag == net::MsgTag::kVote && from == 1 && drop_vote) {
              drop_vote = false;
              return true;
            }
            return false;
          },
      .node_up = nullptr,  // always up
  });
  auto done = sys.coordinator().Submit(MakeSpec({{1, 2}, {2, 2}}));
  sys.sim().RunUntil(30.0);
  ASSERT_TRUE(done->done());
  EXPECT_EQ(sys.coordinator().commits(), 1u);
  EXPECT_EQ(sys.coordinator().aborts_by_reason(AbortReason::kCommTimeout), 1u);
  EXPECT_EQ(sys.network().messages_lost(), 1u);
  EXPECT_EQ(sys.coordinator().live_transactions(), 0u);
}

TEST(TxnFault, CohortCrashBetweenPrepareAndDecisionRestartsAndCommits) {
  // Node 1's VOTE is withheld so the transaction sits in kPreparing (the
  // 30 s timeout stays out of the way); then node 1 crashes while its
  // cohort is in doubt. The coordinator must drain the crashed cohort,
  // abort with kNodeCrash, and commit after the node recovers.
  bool drop_vote = true;
  System sys(FaultProtocolConfig(/*msg_timeout_sec=*/30.0));
  sys.network().SetFaultPolicy(net::Network::FaultPolicy{
      .should_drop =
          [&drop_vote](NodeId from, NodeId, net::MsgTag tag) {
            return tag == net::MsgTag::kVote && from == 1 && drop_vote;
          },
      .node_up = [&sys](NodeId node) { return sys.NodeUp(node); },
  });
  auto done = sys.coordinator().Submit(MakeSpec({{1, 2}, {2, 2}}, 0b01));
  sys.sim().RunUntil(2.0);
  EXPECT_FALSE(done->done());  // stuck in doubt
  sys.CrashNode(1);
  EXPECT_FALSE(sys.NodeUp(1));
  EXPECT_EQ(sys.coordinator().aborts_by_reason(AbortReason::kNodeCrash), 1u);
  drop_vote = false;
  sys.sim().RunUntil(2.5);
  sys.RecoverNode(1);
  EXPECT_TRUE(sys.NodeUp(1));
  sys.sim().RunUntil(120.0);
  ASSERT_TRUE(done->done());
  EXPECT_EQ(sys.coordinator().commits(), 1u);
  EXPECT_EQ(sys.coordinator().live_transactions(), 0u);
}

TEST(TxnFault, DroppedCommitExhaustsResendsAndForcesTermination) {
  // Every COMMIT to node 1 vanishes. The coordinator must resend the
  // decision max_decision_resends times, then force termination: the
  // reachable-but-silent cohort gets the decision applied out of band and
  // the transaction completes.
  auto cfg = FaultProtocolConfig(/*msg_timeout_sec=*/1.0);
  cfg.faults.max_decision_resends = 2;
  System sys(cfg);
  sys.network().SetFaultPolicy(net::Network::FaultPolicy{
      .should_drop =
          [](NodeId, NodeId to, net::MsgTag tag) {
            return tag == net::MsgTag::kCommit && to == 1;
          },
      .node_up = nullptr,  // always up
  });
  auto done = sys.coordinator().Submit(MakeSpec({{1, 2}, {2, 2}}, 0b11));
  sys.sim().RunUntil(30.0);
  ASSERT_TRUE(done->done());
  EXPECT_EQ(sys.coordinator().commits(), 1u);
  EXPECT_EQ(sys.coordinator().forced_terminations(), 1u);
  // Initial COMMIT + two resends, all eaten.
  EXPECT_EQ(sys.network().messages_lost(), 3u);
  EXPECT_EQ(sys.coordinator().live_transactions(), 0u);
}

TEST(TxnFault, FaultRunsAreDeterministic) {
  // Same seed, same FaultParams: two full runs must produce bit-identical
  // metrics even with crash/drop/disk-error machinery active.
  auto cfg = test::SmallConfig(config::CcAlgorithm::kWoundWait, 2.0);
  cfg.run.warmup_sec = 5;
  cfg.run.measure_sec = 30;
  cfg.faults.node_mttf_sec = 10.0;
  cfg.faults.node_mttr_sec = 2.0;
  cfg.faults.msg_drop_prob = 0.01;
  cfg.faults.disk_error_prob = 0.02;
  cfg.faults.msg_timeout_sec = 1.0;
  engine::RunResult a = engine::RunSimulation(cfg);
  engine::RunResult b = engine::RunSimulation(cfg);
  // The faults actually happened...
  EXPECT_GT(a.node_crashes, 0u);
  EXPECT_GT(a.messages_dropped, 0u);
  EXPECT_LT(a.availability, 1.0);
  EXPECT_GT(a.commits, 0u);
  // ...and both runs agree bit for bit (wall time is host timing).
  a.wall_seconds = b.wall_seconds = 0.0;
  EXPECT_EQ(experiments::SerializeResult(a), experiments::SerializeResult(b));
}

TEST(TxnFault, ZeroRatesKeepTheFingerprintAndWatchdogNeverMixes) {
  auto base = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 4.0);
  auto zero = base;
  zero.faults = config::FaultParams{};  // explicit all-zero rates
  zero.run.watchdog_max_events = 123456;
  zero.run.watchdog_stall_sec = 99.0;
  // Zero fault rates and watchdog limits are diagnostic-only: same cache key
  // as the seed configuration.
  EXPECT_EQ(base.Fingerprint(), zero.Fingerprint());
  auto faulty = base;
  faulty.faults.node_mttf_sec = 60.0;
  EXPECT_NE(base.Fingerprint(), faulty.Fingerprint());
}

using TxnFaultDeathTest = ::testing::Test;

TEST(TxnFaultDeathTest, WatchdogMaxEventsAborts) {
  auto cfg = test::SmallConfig(config::CcAlgorithm::kNoDc, 1.0);
  cfg.run.watchdog_max_events = 500;  // a full run fires far more
  EXPECT_DEATH(engine::RunSimulation(cfg), "max-events limit exceeded");
}

TEST(TxnFaultDeathTest, WedgedRunTripsStallWatchdogWithDiagnosticDump) {
  // Wedge: every data-plane message is eaten with retries and protocol
  // timeouts disabled, while the crash/recovery cycle keeps the clock
  // moving. Nothing ever commits, so the stall watchdog must kill the run
  // and the check hook must print the diagnostic dump.
  auto cfg = test::SmallConfig(config::CcAlgorithm::kNoDc, 1.0);
  cfg.faults.node_mttf_sec = 3.0;
  cfg.faults.node_mttr_sec = 1.0;
  cfg.faults.msg_timeout_sec = 0.0;  // no protocol rescue
  cfg.run.watchdog_stall_sec = 5.0;
  EXPECT_DEATH(
      {
        System sys(cfg);
        sys.network().SetFaultPolicy(net::Network::FaultPolicy{
            .should_drop = [](NodeId, NodeId, net::MsgTag) { return true; },
            .node_up = nullptr,  // always up
        });
        sys.Run();
      },
      "ccsim simulation diagnostic dump");
}

}  // namespace
}  // namespace ccsim::txn
