// Tests for the two extension locking schemes: wait-die ([Rose78]'s second
// scheme) and timeout-based 2PL ([Jenq89], paper footnote 2).

#include <gtest/gtest.h>

#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/engine/run.h"
#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::FakeCcContext;
using test::MakeTxn;

// --- Wait-die ---------------------------------------------------------------

class WaitDieTest : public ::testing::Test {
 protected:
  WaitDieTest() : mgr_(&ctx_, /*node=*/1) {}

  FakeCcContext ctx_{config::CcAlgorithm::kWaitDie};
  TwoPhaseLockingManager mgr_;
  PageRef p1_{0, 1};
};

TEST_F(WaitDieTest, OlderRequesterWaits) {
  auto young = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  auto old_txn = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  mgr_.BeginCohort(young, 0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.RequestAccess(young, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  EXPECT_FALSE(c->done());  // old waits for young
  EXPECT_EQ(mgr_.lock_table().num_waiting_requests(), 1u);
  // When the young holder commits, the old requester is granted.
  mgr_.CommitCohort(young, 0);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(WaitDieTest, YoungerRequesterDies) {
  auto old_txn = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto young = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.BeginCohort(young, 0);
  mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(young, 0, p1_, AccessMode::kWrite);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);
  // The death is self-reported by the cohort, not an abort request.
  EXPECT_TRUE(ctx_.abort_requests.empty());
  EXPECT_EQ(mgr_.SelfAbortReason(), txn::AbortReason::kDie);
  // The lock table is clean: the old holder still holds, no waiter remains.
  EXPECT_EQ(mgr_.lock_table().num_waiting_requests(), 0u);
}

TEST_F(WaitDieTest, ReadersShareRegardlessOfAge) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_}, 0, 5.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  auto c1 = mgr_.RequestAccess(t1, 0, p1_, AccessMode::kRead);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  ASSERT_TRUE(c1->done());
  ASSERT_TRUE(c2->done());
  EXPECT_EQ(c1->TakeValue(), AccessOutcome::kGranted);
  EXPECT_EQ(c2->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(WaitDieTest, DeathAgainstAnyOlderBlocker) {
  auto old1 = MakeTxn(1, 1, {p1_}, 0, 1.0);
  auto old2 = MakeTxn(2, 1, {p1_}, 0, 2.0);
  auto young = MakeTxn(3, 1, {p1_}, 0b1, 9.0);
  mgr_.BeginCohort(old1, 0);
  mgr_.BeginCohort(old2, 0);
  mgr_.BeginCohort(young, 0);
  mgr_.RequestAccess(old1, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(old2, 0, p1_, AccessMode::kRead);
  auto c = mgr_.RequestAccess(young, 0, p1_, AccessMode::kWrite);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);
}

TEST_F(WaitDieTest, EndToEndSerializableUnderContention) {
  auto cfg = test::SmallConfig(config::CcAlgorithm::kWaitDie, 0.0, 4);
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 100u);
  EXPECT_GT(r.aborts_die, 0u);
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

// --- Timeout-based 2PL --------------------------------------------------------

class TimeoutTest : public ::testing::Test {
 protected:
  TimeoutTest() {
    ctx_.mutable_config().algorithm =
        config::CcAlgorithm::kTwoPhaseLockingTimeout;
    ctx_.mutable_config().locking.timeout_sec = 2.0;
    mgr_ = std::make_unique<TwoPhaseLockingManager>(&ctx_, 1);
  }

  FakeCcContext ctx_;
  std::unique_ptr<TwoPhaseLockingManager> mgr_;
  PageRef p1_{0, 1};
};

TEST_F(TimeoutTest, WaitShorterThanTimeoutSurvives) {
  auto holder = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto waiter = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_->BeginCohort(holder, 0);
  mgr_->BeginCohort(waiter, 0);
  mgr_->RequestAccess(holder, 0, p1_, AccessMode::kWrite);
  auto c = mgr_->RequestAccess(waiter, 0, p1_, AccessMode::kRead);
  ctx_.simulation().At(1.0, [&] { mgr_->CommitCohort(holder, 0); });
  ctx_.Pump();
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
  EXPECT_TRUE(mgr_->lock_table().HoldsLock(2, p1_));
}

TEST_F(TimeoutTest, WaitLongerThanTimeoutAborts) {
  auto holder = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto waiter = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_->BeginCohort(holder, 0);
  mgr_->BeginCohort(waiter, 0);
  mgr_->RequestAccess(holder, 0, p1_, AccessMode::kWrite);
  auto c = mgr_->RequestAccess(waiter, 0, p1_, AccessMode::kRead);
  ctx_.Pump();  // nothing releases; the timeout fires at t=2
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);
  EXPECT_DOUBLE_EQ(ctx_.simulation().Now(), 2.0);
  EXPECT_EQ(mgr_->lock_table().num_waiting_requests(), 0u);
  EXPECT_TRUE(mgr_->lock_table().HoldsLock(1, p1_));
  EXPECT_EQ(mgr_->SelfAbortReason(), txn::AbortReason::kTimeout);
}

TEST_F(TimeoutTest, NoWaitsForEdgesReported) {
  auto holder = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto waiter = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_->BeginCohort(holder, 0);
  mgr_->BeginCohort(waiter, 0);
  mgr_->RequestAccess(holder, 0, p1_, AccessMode::kWrite);
  mgr_->RequestAccess(waiter, 0, p1_, AccessMode::kRead);
  EXPECT_TRUE(mgr_->LocalWaitsForEdges().empty());
}

TEST_F(TimeoutTest, StaleTimerAfterExternalAbortIsHarmless) {
  auto holder = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto waiter = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_->BeginCohort(holder, 0);
  mgr_->BeginCohort(waiter, 0);
  mgr_->RequestAccess(holder, 0, p1_, AccessMode::kWrite);
  auto c = mgr_->RequestAccess(waiter, 0, p1_, AccessMode::kRead);
  // The waiter's transaction aborts for another reason before the timer.
  ctx_.simulation().At(0.5, [&] { mgr_->AbortCohort(waiter, 0); });
  ctx_.Pump();
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);  // by the abort
  // The timer still fired at t=2 and found the request done: the holder
  // keeps its lock and nothing is left queued.
  EXPECT_DOUBLE_EQ(ctx_.simulation().Now(), 2.0);
  EXPECT_TRUE(mgr_->lock_table().HoldsLock(1, p1_));
  EXPECT_EQ(mgr_->lock_table().num_waiting_requests(), 0u);
}

TEST_F(TimeoutTest, EndToEndResolvesDeadlocksViaTimeouts) {
  auto cfg = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLockingTimeout,
                               0.0, 4);
  cfg.locking.timeout_sec = 0.5;
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 100u);
  EXPECT_GT(r.aborts_timeout, 0u);
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

}  // namespace
}  // namespace ccsim::cc
