#include "ccsim/cc/two_phase_locking.h"

#include <gtest/gtest.h>

#include "ccsim/cc/cc_factory.h"
#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::FakeCcContext;
using test::MakeTxn;

class TwoPhaseLockingTest : public ::testing::Test {
 protected:
  TwoPhaseLockingTest() : mgr_(&ctx_, /*node=*/1) {}

  FakeCcContext ctx_;
  TwoPhaseLockingManager mgr_;
  PageRef p1_{0, 1};
  PageRef p2_{0, 2};
};

TEST_F(TwoPhaseLockingTest, ReadGrantsImmediatelyAndAuditsVersion) {
  auto t = MakeTxn(1, 1, {p1_});
  mgr_.BeginCohort(t, 0);
  auto c = mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
  ASSERT_EQ(ctx_.audits.size(), 1u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kRead);
}

TEST_F(TwoPhaseLockingTest, WriteRequestTakesExclusiveLock) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1);
  auto t2 = MakeTxn(2, 1, {p1_});
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  EXPECT_FALSE(c2->done());  // blocked behind the exclusive lock
}

TEST_F(TwoPhaseLockingTest, ReadersShare) {
  auto t1 = MakeTxn(1, 1, {p1_});
  auto t2 = MakeTxn(2, 1, {p1_});
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  auto c1 = mgr_.RequestAccess(t1, 0, p1_, AccessMode::kRead);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  EXPECT_TRUE(c1->done());
  EXPECT_TRUE(c2->done());
  EXPECT_TRUE(ctx_.abort_requests.empty());
}

TEST_F(TwoPhaseLockingTest, BlockWithoutCycleRaisesNoAbort) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  EXPECT_TRUE(ctx_.abort_requests.empty());
}

TEST_F(TwoPhaseLockingTest, LocalDeadlockAbortsYoungest) {
  auto t1 = MakeTxn(1, 1, {p1_, p2_}, 0b11, 1.0);  // older
  auto t2 = MakeTxn(2, 1, {p1_, p2_}, 0b11, 5.0);  // younger
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p2_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kWrite);  // t2 blocks on t1
  EXPECT_TRUE(ctx_.abort_requests.empty());
  mgr_.RequestAccess(t1, 0, p2_, AccessMode::kWrite);  // closes the cycle
  ASSERT_EQ(ctx_.abort_requests.size(), 1u);
  EXPECT_EQ(ctx_.abort_requests[0].txn, 2u);  // youngest startup time
  EXPECT_EQ(ctx_.abort_requests[0].reason, txn::AbortReason::kLocalDeadlock);
  EXPECT_EQ(ctx_.abort_requests[0].from_node, 1);
}

TEST_F(TwoPhaseLockingTest, AbortCohortReleasesAndWakesVictim) {
  auto t1 = MakeTxn(1, 1, {p1_, p2_}, 0b11, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_, p2_}, 0b11, 5.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p2_, AccessMode::kWrite);
  auto blocked2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kWrite);
  auto blocked1 = mgr_.RequestAccess(t1, 0, p2_, AccessMode::kWrite);
  // Abort the victim (t2): its waiter wakes kAborted, its lock on p2
  // releases, and t1's blocked request is granted.
  mgr_.AbortCohort(t2, 0);
  ASSERT_TRUE(blocked2->done());
  EXPECT_EQ(blocked2->TakeValue(), AccessOutcome::kAborted);
  ASSERT_TRUE(blocked1->done());
  EXPECT_EQ(blocked1->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(TwoPhaseLockingTest, CommitInstallsWritesAndReleases) {
  auto t1 = MakeTxn(1, 1, {p1_, p2_}, 0b10);  // p2 is the write
  mgr_.BeginCohort(t1, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(t1, 0, p2_, AccessMode::kWrite);
  ctx_.audits.clear();
  mgr_.CommitCohort(t1, 0);
  ASSERT_EQ(ctx_.audits.size(), 1u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[0].page, p2_);
  EXPECT_EQ(mgr_.lock_table().num_locked_pages(), 0u);
}

TEST_F(TwoPhaseLockingTest, DelayedReadGrantIsAudited) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1);
  auto t2 = MakeTxn(2, 1, {p1_});
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  ctx_.audits.clear();
  mgr_.CommitCohort(t1, 0);  // install + release -> grants t2's read
  ASSERT_TRUE(c2->done());
  // Audit order: t1's install precedes t2's read of the new version.
  ASSERT_EQ(ctx_.audits.size(), 2u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[1].kind, FakeCcContext::AuditCall::kRead);
  EXPECT_EQ(ctx_.audits[1].txn, 2u);
}

TEST_F(TwoPhaseLockingTest, FindTxnTracksRegistry) {
  auto t1 = MakeTxn(1, 1, {p1_});
  EXPECT_EQ(mgr_.FindTxn(1), nullptr);
  mgr_.BeginCohort(t1, 0);
  EXPECT_EQ(mgr_.FindTxn(1), t1);
  mgr_.AbortCohort(t1, 0);
  EXPECT_EQ(mgr_.FindTxn(1), nullptr);
}

TEST_F(TwoPhaseLockingTest, WaitsForEdgesExposed) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1);
  auto t2 = MakeTxn(2, 1, {p1_});
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  auto edges = mgr_.LocalWaitsForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2u);
  EXPECT_EQ(edges[0].holder, 1u);
}

TEST_F(TwoPhaseLockingTest, BlockingTimesExposed) {
  EXPECT_NE(mgr_.blocking_times(), nullptr);
  EXPECT_EQ(mgr_.blocking_times()->count(), 0u);
}

TEST_F(TwoPhaseLockingTest, UpgradeDeadlockDetected) {
  // Two shared holders both upgrading: a classic conversion deadlock.
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_}, 0b1, 2.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);  // upgrade, blocks
  EXPECT_TRUE(ctx_.abort_requests.empty());
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kWrite);  // upgrade, deadlock
  ASSERT_EQ(ctx_.abort_requests.size(), 1u);
  EXPECT_EQ(ctx_.abort_requests[0].txn, 2u);
}

// CreateCcManager is where an algorithm becomes a conflict policy: built
// through it, each lock algorithm gets the one lock engine and resolves one
// old/young write conflict on one page its own way.
TEST(LockEngineFactory, EachLockAlgorithmResolvesConflictsByItsPolicy) {
  struct Conflict {
    explicit Conflict(config::CcAlgorithm algorithm) : ctx(algorithm) {
      ctx.mutable_config().locking.timeout_sec = 2.0;
      mgr = CreateCcManager(&ctx, /*node=*/1);
      EXPECT_NE(dynamic_cast<TwoPhaseLockingManager*>(mgr.get()), nullptr);
      mgr->BeginCohort(old_txn, 0);
      mgr->BeginCohort(young_txn, 0);
    }
    // `holder` writes the page, then `requester` writes it.
    std::shared_ptr<sim::Completion<AccessOutcome>> Run(
        const txn::TxnPtr& holder, const txn::TxnPtr& requester) {
      EXPECT_TRUE(mgr->RequestAccess(holder, 0, page, AccessMode::kWrite)
                      ->done());
      return mgr->RequestAccess(requester, 0, page, AccessMode::kWrite);
    }
    FakeCcContext ctx;
    std::unique_ptr<CcManager> mgr;
    PageRef page{0, 1};
    txn::TxnPtr old_txn = MakeTxn(1, 1, {page}, 0b1, 1.0);
    txn::TxnPtr young_txn = MakeTxn(2, 1, {page}, 0b1, 5.0);
  };

  {  // 2PL: the young requester waits; detection finds no cycle.
    Conflict c(config::CcAlgorithm::kTwoPhaseLocking);
    EXPECT_FALSE(c.Run(c.old_txn, c.young_txn)->done());
    EXPECT_TRUE(c.ctx.abort_requests.empty());
    EXPECT_TRUE(c.mgr->UsesGlobalDeadlockDetection());
  }
  {  // WW: the old requester waits and wounds the young holder.
    Conflict c(config::CcAlgorithm::kWoundWait);
    EXPECT_FALSE(c.Run(c.young_txn, c.old_txn)->done());
    ASSERT_EQ(c.ctx.abort_requests.size(), 1u);
    EXPECT_EQ(c.ctx.abort_requests[0].txn, 2u);
    EXPECT_EQ(c.ctx.abort_requests[0].reason, txn::AbortReason::kWound);
    EXPECT_FALSE(c.mgr->UsesGlobalDeadlockDetection());
  }
  {  // WD: the young requester dies at once.
    Conflict c(config::CcAlgorithm::kWaitDie);
    auto request = c.Run(c.old_txn, c.young_txn);
    ASSERT_TRUE(request->done());
    EXPECT_EQ(request->TakeValue(), AccessOutcome::kAborted);
    EXPECT_TRUE(c.ctx.abort_requests.empty());
    EXPECT_EQ(c.mgr->SelfAbortReason(), txn::AbortReason::kDie);
  }
  {  // 2PL-TO: the young requester waits, then aborts after timeout_sec.
    Conflict c(config::CcAlgorithm::kTwoPhaseLockingTimeout);
    auto request = c.Run(c.old_txn, c.young_txn);
    EXPECT_FALSE(request->done());
    c.ctx.Pump();
    ASSERT_TRUE(request->done());
    EXPECT_EQ(request->TakeValue(), AccessOutcome::kAborted);
    EXPECT_DOUBLE_EQ(c.ctx.simulation().Now(), 2.0);
    EXPECT_EQ(c.mgr->SelfAbortReason(), txn::AbortReason::kTimeout);
    EXPECT_FALSE(c.mgr->UsesGlobalDeadlockDetection());
  }
  {  // 2PL-DW: both writes lock shared; the old one's upgrade waits.
    Conflict c(config::CcAlgorithm::kTwoPhaseLockingDeferred);
    EXPECT_TRUE(c.Run(c.old_txn, c.young_txn)->done());
    auto vote = c.mgr->Prepare(c.old_txn, 0);
    EXPECT_FALSE(vote->done());
    EXPECT_TRUE(c.ctx.abort_requests.empty());
    EXPECT_TRUE(c.mgr->UsesGlobalDeadlockDetection());
  }
}

}  // namespace
}  // namespace ccsim::cc
