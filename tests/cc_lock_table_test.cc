#include "ccsim/cc/lock_table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::MakeTxn;

class LockTableTest : public ::testing::Test {
 protected:
  AccessOutcome Value(
      const std::shared_ptr<sim::Completion<AccessOutcome>>& c) {
    EXPECT_TRUE(c->done());
    return c->TakeValue();
  }

  sim::Simulation sim_;
  LockTable table_{&sim_};
  PageRef page_{0, 1};
  PageRef page2_{0, 2};
};

TEST_F(LockTableTest, FirstSharedRequestGrants) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto r = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(r.granted_immediately);
  EXPECT_EQ(Value(r.completion), AccessOutcome::kGranted);
  EXPECT_TRUE(table_.HoldsLock(1, page_));
}

TEST_F(LockTableTest, SharedLocksShare) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  EXPECT_TRUE(r2.granted_immediately);
  EXPECT_TRUE(table_.HoldsLock(1, page_));
  EXPECT_TRUE(table_.HoldsLock(2, page_));
}

TEST_F(LockTableTest, ExclusiveConflictsWithShared) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto r2 = table_.Request(t2, page_, LockMode::kExclusive);
  EXPECT_FALSE(r2.granted_immediately);
  ASSERT_EQ(r2.blockers.size(), 1u);
  EXPECT_EQ(r2.blockers[0]->id(), 1u);
  EXPECT_TRUE(table_.IsWaiting(2));
}

TEST_F(LockTableTest, SharedConflictsWithExclusive) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  EXPECT_FALSE(r2.granted_immediately);
}

TEST_F(LockTableTest, ReleaseWakesWaiterInFifoOrder) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kExclusive);
  auto r3 = table_.Request(t3, page_, LockMode::kExclusive);
  table_.ReleaseAll(1, false);
  EXPECT_TRUE(r2.completion->done());
  EXPECT_FALSE(r3.completion->done());
  EXPECT_EQ(Value(r2.completion), AccessOutcome::kGranted);
  table_.ReleaseAll(2, false);
  EXPECT_EQ(Value(r3.completion), AccessOutcome::kGranted);
}

TEST_F(LockTableTest, ReleaseGrantsAllCompatibleSharedWaiters) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  auto r3 = table_.Request(t3, page_, LockMode::kShared);
  table_.ReleaseAll(1, false);
  EXPECT_TRUE(r2.completion->done());
  EXPECT_TRUE(r3.completion->done());
}

TEST_F(LockTableTest, CompatibleRequestBehindWaiterStillQueues) {
  // No queue jumping: S behind a queued X waits even though it is
  // compatible with the current S holder.
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  EXPECT_FALSE(rs.granted_immediately);
  // t3 waits for both the X waiter ahead and (not) the compatible holder.
  ASSERT_EQ(rs.blockers.size(), 1u);
  EXPECT_EQ(rs.blockers[0]->id(), 2u);
}

TEST_F(LockTableTest, RerequestHeldModeGrantsImmediately) {
  auto t1 = MakeTxn(1, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto again = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(again.granted_immediately);
  auto weaker = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(weaker.granted_immediately);
}

TEST_F(LockTableTest, SoleHolderUpgradesInPlace) {
  auto t1 = MakeTxn(1, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto up = table_.Request(t1, page_, LockMode::kExclusive);
  EXPECT_TRUE(up.granted_immediately);
  // Now exclusive: another shared request must wait.
  auto t2 = MakeTxn(2, 1, {page_});
  EXPECT_FALSE(table_.Request(t2, page_, LockMode::kShared)
                   .granted_immediately);
}

TEST_F(LockTableTest, UpgradeWithOtherHoldersWaitsAtFront) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t2, page_, LockMode::kShared);
  auto r3 = table_.Request(t3, page_, LockMode::kExclusive);  // queued
  auto up = table_.Request(t1, page_, LockMode::kExclusive);  // upgrade
  EXPECT_FALSE(up.granted_immediately);
  // Upgrade blockers: the other shared holder (t2), not itself.
  ASSERT_EQ(up.blockers.size(), 1u);
  EXPECT_EQ(up.blockers[0]->id(), 2u);
  // When t2 releases, the upgrade is granted before t3's exclusive.
  table_.ReleaseAll(2, false);
  EXPECT_TRUE(up.completion->done());
  EXPECT_FALSE(r3.completion->done());
}

TEST_F(LockTableTest, AbortReleaseCompletesWaitersWithAborted) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  table_.ReleaseAll(2, true);  // t2 aborts while waiting
  EXPECT_EQ(Value(r2.completion), AccessOutcome::kAborted);
  // The lock is still held by t1.
  EXPECT_TRUE(table_.HoldsLock(1, page_));
  EXPECT_FALSE(table_.IsWaiting(2));
}

TEST_F(LockTableTest, ReleaseAllCoversMultiplePages) {
  auto t1 = MakeTxn(1, 1, {page_, page2_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t1, page2_, LockMode::kExclusive);
  EXPECT_EQ(table_.num_locked_pages(), 2u);
  table_.ReleaseAll(1, false);
  EXPECT_EQ(table_.num_locked_pages(), 0u);
}

TEST_F(LockTableTest, ReleaseUnknownTxnIsNoOp) {
  table_.ReleaseAll(99, true);
  EXPECT_EQ(table_.num_locked_pages(), 0u);
}

TEST_F(LockTableTest, WaitsForEdgesReportWaiterToHolder) {
  auto t1 = MakeTxn(1, 1, {page_}, 0, 1.0);
  auto t2 = MakeTxn(2, 1, {page_}, 0, 2.0);
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  auto edges = table_.WaitsForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2u);
  EXPECT_EQ(edges[0].holder, 1u);
  EXPECT_DOUBLE_EQ(edges[0].waiter_ts.time, 2.0);
  EXPECT_DOUBLE_EQ(edges[0].holder_ts.time, 1.0);
}

TEST_F(LockTableTest, WaitsForEdgesIncludeQueuedAheadConflicts) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kExclusive);
  table_.Request(t3, page_, LockMode::kExclusive);
  auto edges = table_.WaitsForEdges();
  // t2 -> t1; t3 -> t1 and t3 -> t2.
  EXPECT_EQ(edges.size(), 3u);
}

TEST_F(LockTableTest, WaitTimeStatisticsRecordDelays) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  sim_.At(2.5, [&] { table_.ReleaseAll(1, false); });
  sim_.Run();
  EXPECT_TRUE(r2.completion->done());
  ASSERT_EQ(table_.wait_times().count(), 1u);
  EXPECT_DOUBLE_EQ(table_.wait_times().mean(), 2.5);
}

TEST_F(LockTableTest, DelayedGrantCallbackFires) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  int called = 0;
  table_.set_on_delayed_grant(
      [&](const txn::TxnPtr& t, const PageRef& p, LockMode m) {
        ++called;
        EXPECT_EQ(t->id(), 2u);
        EXPECT_EQ(p, page_);
        EXPECT_EQ(m, LockMode::kShared);
      });
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  EXPECT_EQ(called, 0);
  table_.ReleaseAll(1, false);
  EXPECT_EQ(called, 1);
}

TEST_F(LockTableTest, DistinctPagesDoNotConflict) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page2_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page2_, LockMode::kExclusive);
  EXPECT_TRUE(r2.granted_immediately);
}

TEST_F(LockTableTest, QueueJumpGrantsCompatibleRequestDespiteWaiters) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);  // waits
  auto rs = table_.Request(t3, page_, LockMode::kShared);     // overtakes
  EXPECT_FALSE(rx.granted_immediately);
  EXPECT_TRUE(rs.granted_immediately);
}

TEST_F(LockTableTest, QueueJumpReleaseGrantsAnyCompatibleWaiter) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  auto t4 = MakeTxn(4, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  auto rs2 = table_.Request(t4, page_, LockMode::kShared);
  table_.ReleaseAll(1, false);
  // The exclusive waiter at the front is granted; under strict FIFO the
  // shared waiters would now wait, and they still must (t2 holds X).
  EXPECT_TRUE(rx.completion->done());
  EXPECT_FALSE(rs.completion->done());
  EXPECT_FALSE(rs2.completion->done());
  table_.ReleaseAll(2, false);
  EXPECT_TRUE(rs.completion->done());
  EXPECT_TRUE(rs2.completion->done());
}

TEST_F(LockTableTest, QueueJumpReleaseSkipsBlockedFrontWaiter) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t2, page_, LockMode::kShared);
  // t1 upgrades (front of queue, blocked on t2); t3's shared request then
  // arrives and, under the jump policy, is granted over the queued upgrade.
  auto up = table_.Request(t1, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  EXPECT_FALSE(up.granted_immediately);
  EXPECT_TRUE(rs.granted_immediately);
  // t2 releases; upgrade still blocked by t3's shared lock.
  table_.ReleaseAll(2, false);
  EXPECT_FALSE(up.completion->done());
  table_.ReleaseAll(3, false);
  EXPECT_TRUE(up.completion->done());
}

TEST_F(LockTableTest, CancelRequestDropsTheWaitsRegistration) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_, page2_});
  auto t3 = MakeTxn(3, 1, {page2_});
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page2_, LockMode::kShared);
  table_.Request(t3, page2_, LockMode::kShared);
  // A plain wait: t2 no longer waits on page_, and its registration for it
  // goes too (the audit's forward check: listed pages are held or waited).
  auto wait = table_.Request(t2, page_, LockMode::kShared);
  ASSERT_FALSE(wait.granted_immediately);
  EXPECT_TRUE(table_.CancelRequest(2, page_));
  EXPECT_EQ(Value(wait.completion), AccessOutcome::kAborted);
  table_.AuditInvariants();
  // A queued upgrade lists page2_ twice; cancelling it keeps the shared
  // hold's registration.
  auto upgrade = table_.Request(t2, page2_, LockMode::kExclusive);
  ASSERT_FALSE(upgrade.granted_immediately);
  EXPECT_TRUE(table_.CancelRequest(2, page2_));
  EXPECT_EQ(Value(upgrade.completion), AccessOutcome::kAborted);
  table_.AuditInvariants();
  EXPECT_FALSE(table_.IsWaiting(2));
  EXPECT_TRUE(table_.HoldsLock(2, page2_));
  table_.ReleaseAll(2, true);
  EXPECT_FALSE(table_.HoldsLock(2, page2_));
  EXPECT_TRUE(table_.HoldsLock(3, page2_));
  EXPECT_EQ(table_.num_waiting_requests(), 0u);
  table_.AuditInvariants();
}

TEST_F(LockTableTest, StrictFifoIsTheDefault) {
  EXPECT_FALSE(table_.allow_queue_jump());
}

TEST_F(LockTableTest, CommitReleaseWithPendingWaiterOfSameTxnIsFatal) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  EXPECT_DEATH(table_.ReleaseAll(2, false), "pending");
}

}  // namespace
}  // namespace ccsim::cc
