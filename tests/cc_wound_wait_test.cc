#include "ccsim/cc/two_phase_locking.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::FakeCcContext;
using test::MakeTxn;

class WoundWaitTest : public ::testing::Test {
 protected:
  WoundWaitTest() : mgr_(&ctx_, /*node=*/2) {}

  FakeCcContext ctx_{config::CcAlgorithm::kWoundWait};
  TwoPhaseLockingManager mgr_;
  PageRef p1_{0, 1};
  PageRef p2_{0, 2};
};

TEST_F(WoundWaitTest, OlderRequesterWoundsYoungerHolder) {
  auto old_txn = MakeTxn(1, 2, {p1_}, 0b1, 1.0);
  auto young_txn = MakeTxn(2, 2, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(young_txn, 0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.RequestAccess(young_txn, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  EXPECT_FALSE(c->done());  // the older transaction waits...
  ASSERT_EQ(ctx_.abort_requests.size(), 1u);  // ...and wounds the younger
  EXPECT_EQ(ctx_.abort_requests[0].txn, 2u);
  EXPECT_EQ(ctx_.abort_requests[0].reason, txn::AbortReason::kWound);
  EXPECT_EQ(ctx_.abort_requests[0].from_node, 2);
}

TEST_F(WoundWaitTest, YoungerRequesterJustWaits) {
  auto old_txn = MakeTxn(1, 2, {p1_}, 0b1, 1.0);
  auto young_txn = MakeTxn(2, 2, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.BeginCohort(young_txn, 0);
  mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(young_txn, 0, p1_, AccessMode::kWrite);
  EXPECT_FALSE(c->done());
  EXPECT_TRUE(ctx_.abort_requests.empty());
}

TEST_F(WoundWaitTest, WoundIgnoredWhenVictimIsCommitting) {
  auto old_txn = MakeTxn(1, 2, {p1_}, 0b1, 1.0);
  auto young_txn = MakeTxn(2, 2, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(young_txn, 0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.RequestAccess(young_txn, 0, p1_, AccessMode::kWrite);
  young_txn->set_phase(txn::TxnPhase::kPreparing);
  young_txn->set_phase(txn::TxnPhase::kCommitting);  // second commit phase
  auto c = mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  EXPECT_FALSE(c->done());                   // still waits
  EXPECT_TRUE(ctx_.abort_requests.empty());  // but the wound is not issued
}

TEST_F(WoundWaitTest, WoundedVictimReleasesAndRequesterProceeds) {
  auto old_txn = MakeTxn(1, 2, {p1_}, 0b1, 1.0);
  auto young_txn = MakeTxn(2, 2, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(young_txn, 0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.RequestAccess(young_txn, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  // The abort (via the coordinator) eventually reaches this node:
  mgr_.AbortCohort(young_txn, 0);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(WoundWaitTest, WoundsEveryYoungerBlocker) {
  auto s1 = MakeTxn(2, 2, {p1_}, 0, 5.0);
  auto s2 = MakeTxn(3, 2, {p1_}, 0, 6.0);
  auto old_txn = MakeTxn(1, 2, {p1_}, 0b1, 1.0);
  mgr_.BeginCohort(s1, 0);
  mgr_.BeginCohort(s2, 0);
  mgr_.BeginCohort(old_txn, 0);
  mgr_.RequestAccess(s1, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(s2, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(old_txn, 0, p1_, AccessMode::kWrite);
  ASSERT_EQ(ctx_.abort_requests.size(), 2u);
  EXPECT_EQ(ctx_.abort_requests[0].txn, 2u);  // in blocker (TxnId) order
  EXPECT_EQ(ctx_.abort_requests[1].txn, 3u);
  for (const auto& wound : ctx_.abort_requests) {
    EXPECT_EQ(wound.reason, txn::AbortReason::kWound);
  }
}

TEST_F(WoundWaitTest, MixedAgesWoundOnlyYounger) {
  auto older_holder = MakeTxn(1, 2, {p1_}, 0, 1.0);
  auto younger_holder = MakeTxn(3, 2, {p1_}, 0, 9.0);
  auto requester = MakeTxn(2, 2, {p1_}, 0b1, 5.0);
  mgr_.BeginCohort(older_holder, 0);
  mgr_.BeginCohort(younger_holder, 0);
  mgr_.BeginCohort(requester, 0);
  mgr_.RequestAccess(older_holder, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(younger_holder, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(requester, 0, p1_, AccessMode::kWrite);
  ASSERT_EQ(ctx_.abort_requests.size(), 1u);
  EXPECT_EQ(ctx_.abort_requests[0].txn, 3u);
}

TEST_F(WoundWaitTest, ReadersStillShare) {
  auto t1 = MakeTxn(1, 2, {p1_}, 0, 1.0);
  auto t2 = MakeTxn(2, 2, {p1_}, 0, 2.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  auto c1 = mgr_.RequestAccess(t1, 0, p1_, AccessMode::kRead);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kRead);
  EXPECT_TRUE(c1->done());
  EXPECT_TRUE(c2->done());
  EXPECT_TRUE(ctx_.abort_requests.empty());
}

TEST_F(WoundWaitTest, InitialTimestampRetainedAcrossRestart) {
  // A restarted transaction keeps its initial startup timestamp, so it
  // eventually becomes the oldest and cannot be wounded into starvation.
  auto t = MakeTxn(7, 2, {p1_}, 0, 3.0);
  Timestamp initial = t->initial_ts();
  t->BeginAttempt(50.0);  // restart much later
  EXPECT_EQ(t->initial_ts(), initial);
  EXPECT_GT(t->attempt_ts(), initial);
}

}  // namespace
}  // namespace ccsim::cc
