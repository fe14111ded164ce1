#include "ccsim/engine/serializability.h"

#include <gtest/gtest.h>

#include <utility>

#include "ccsim/engine/run.h"
#include "test_util.h"

namespace ccsim::engine {
namespace {

txn::AuditRecord Read(PageRef p, std::uint64_t version) {
  return txn::AuditRecord{p, version, false, true};
}
txn::AuditRecord Write(PageRef p, std::uint64_t version) {
  return txn::AuditRecord{p, version, true, true};
}
txn::AuditRecord SkippedWrite(PageRef p) {
  return txn::AuditRecord{p, 0, true, false};
}

const PageRef kP{0, 1};
const PageRef kQ{0, 2};

TEST(Serializability, EmptyLogIsSerializable) {
  EXPECT_TRUE(CheckSerializability({}).serializable);
}

TEST(Serializability, SingleTransactionIsSerializable) {
  std::vector<CommittedTxn> log{{1, 1.0, {Read(kP, 0), Write(kQ, 1)}}};
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, ReadersOfSuccessiveVersionsAreOrdered) {
  std::vector<CommittedTxn> log{
      {1, 1.0, {Write(kP, 1)}},
      {2, 2.0, {Read(kP, 1)}},
      {3, 3.0, {Write(kP, 2)}},
      {4, 4.0, {Read(kP, 2)}},
  };
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, LostUpdateCycleDetected) {
  // T1 reads version 0 of P and writes Q; T2 reads version 0 of Q and
  // writes P. Each must precede the other: a classic write-skew cycle.
  std::vector<CommittedTxn> log{
      {1, 1.0, {Read(kP, 0), Write(kQ, 1)}},
      {2, 2.0, {Read(kQ, 0), Write(kP, 1)}},
  };
  auto result = CheckSerializability(log);
  EXPECT_FALSE(result.serializable);
  EXPECT_EQ(result.cycle, (std::vector<TxnId>{1, 2}));
  EXPECT_NE(result.Describe().find("NOT serializable"), std::string::npos);
}

TEST(Serializability, RwWrCycleDetected) {
  // T1 reads v0 of P (so T1 precedes T2 who wrote v1) but also reads T2's
  // write on Q (so T2 precedes T1).
  std::vector<CommittedTxn> log{
      {2, 2.0, {Write(kP, 1), Write(kQ, 1)}},
      {1, 1.0, {Read(kP, 0), Read(kQ, 1)}},
  };
  EXPECT_FALSE(CheckSerializability(log).serializable);
}

TEST(Serializability, WwOrderIsConsistent) {
  std::vector<CommittedTxn> log{
      {1, 1.0, {Write(kP, 1), Write(kQ, 1)}},
      {2, 2.0, {Write(kP, 2), Write(kQ, 2)}},
  };
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, WwCycleAcrossPagesDetected) {
  // P: T1 then T2; Q: T2 then T1.
  std::vector<CommittedTxn> log{
      {1, 1.0, {Write(kP, 1), Write(kQ, 2)}},
      {2, 2.0, {Write(kP, 2), Write(kQ, 1)}},
  };
  EXPECT_FALSE(CheckSerializability(log).serializable);
}

TEST(Serializability, ThomasSkippedWritesAddNoConstraints) {
  // T1's write of P was skipped (Thomas rule): it must not create ww edges.
  std::vector<CommittedTxn> log{
      {2, 2.0, {Write(kP, 1), Write(kQ, 1)}},
      {1, 1.0, {SkippedWrite(kP), Read(kQ, 1)}},
  };
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, ReadOfInitialVersionHasNoWriterEdge) {
  std::vector<CommittedTxn> log{
      {1, 1.0, {Read(kP, 0)}},
      {2, 2.0, {Read(kP, 0)}},
  };
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, ThreeWayCycleDetected) {
  // T1 -> T2 (wr on P), T2 -> T3 (wr on Q), T3 -> T1 (rw on R: T3 read v0,
  // T1 wrote v1).
  const PageRef kR{0, 3};
  std::vector<CommittedTxn> log{
      {1, 1.0, {Write(kP, 1), Write(kR, 1)}},
      {2, 2.0, {Read(kP, 1), Write(kQ, 1)}},
      {3, 3.0, {Read(kQ, 1), Read(kR, 0)}},
  };
  EXPECT_FALSE(CheckSerializability(log).serializable);
}

TEST(Serializability, UncommittedWritersIgnored) {
  // A read-from a txn that never committed (not in the log) adds nothing.
  std::vector<CommittedTxn> log{
      {5, 1.0, {Read(kP, 3)}},  // version 3's writer is not in the log
  };
  EXPECT_TRUE(CheckSerializability(log).serializable);
}

TEST(Serializability, DescribeSerializable) {
  EXPECT_EQ(CheckSerializability({}).Describe(), "serializable");
}

// --- Whole-engine audit on the network-model and overload axes -------------

TEST(SerializabilityAudit, NetModelAndOverloadRunsAreSerializable) {
  // Every engine the audit covers (it skips NO_DC, the contention-free
  // ideal) on the axes beyond the paper's machine: a bandwidth link with
  // batched sends, one-sided RDMA, and an open system with a deadline,
  // restart backoff and shed-newest admission.
  using config::CcAlgorithm;
  const CcAlgorithm engines[] = {
      CcAlgorithm::kTwoPhaseLocking,        CcAlgorithm::kBasicTimestamp,
      CcAlgorithm::kWoundWait,              CcAlgorithm::kOptimistic,
      CcAlgorithm::kTwoPhaseLockingDeferred, CcAlgorithm::kWaitDie,
      CcAlgorithm::kTwoPhaseLockingTimeout};
  using Axis = std::pair<const char*, void (*)(config::SystemConfig&)>;
  const Axis axes[] = {
      {"bandwidth+batching",
       [](config::SystemConfig& c) {
         c.net.model = config::NetModel::kBandwidth;
         c.net.batching = true;
       }},
      {"rdma",
       [](config::SystemConfig& c) { c.net.model = config::NetModel::kRdma; }},
      {"open+deadline+backoff+shed",
       [](config::SystemConfig& c) {
         c.overload.arrival_rate_per_sec = 12.0;
         c.overload.txn_deadline_sec = 0.5;
         c.overload.restart_backoff_base_sec = 0.25;
         c.overload.restart_backoff_cap_sec = 2.0;
         c.overload.max_in_flight = 4;
         c.overload.admission_queue_cap = 2;
         c.overload.admission_policy = config::AdmissionPolicy::kShedNewest;
       }},
  };
  for (CcAlgorithm alg : engines) {
    for (const auto& [axis, apply] : axes) {
      config::SystemConfig cfg = test::SmallConfig(alg, /*think_time=*/1.0);
      cfg.run.warmup_sec = 5;
      cfg.run.measure_sec = 30;
      apply(cfg);
      RunResult r = RunSimulation(cfg);
      EXPECT_GT(r.commits, 0u) << config::ToString(alg) << ", " << axis;
      EXPECT_TRUE(r.audited && r.serializable)
          << config::ToString(alg) << ", " << axis << ": " << r.audit_note;
    }
  }
}

}  // namespace
}  // namespace ccsim::engine
