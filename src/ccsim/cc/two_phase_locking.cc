#include "ccsim/cc/two_phase_locking.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

TwoPhaseLockingManager::Policy TwoPhaseLockingManager::PolicyFor(
    config::CcAlgorithm algorithm) {
  switch (algorithm) {
    case config::CcAlgorithm::kTwoPhaseLocking:
      return {OnBlock::kDetect, false};
    case config::CcAlgorithm::kTwoPhaseLockingDeferred:
      return {OnBlock::kDetect, true};
    case config::CcAlgorithm::kWoundWait:
      return {OnBlock::kWound, false};
    case config::CcAlgorithm::kWaitDie:
      return {OnBlock::kDie, false};
    case config::CcAlgorithm::kTwoPhaseLockingTimeout:
      return {OnBlock::kTimeout, false};
    default:
      CCSIM_CHECK_MSG(false, "not a lock-based algorithm");
      return {};
  }
}

TwoPhaseLockingManager::TwoPhaseLockingManager(CcContext* ctx, NodeId node)
    : ctx_(ctx),
      node_(node),
      policy_(PolicyFor(ctx->config().algorithm)),
      lock_table_(&ctx->simulation()) {
  lock_table_.set_allow_queue_jump(ctx->config().locking.queue_jump);
  // Audit the read version at the exact grant time, including grants that
  // happen after a wait (exclusive locks block installs, so the version a
  // shared lock sees at grant time is the one the cohort reads).
  lock_table_.set_on_delayed_grant(
      [this](const txn::TxnPtr& t, const PageRef& page, LockMode mode) {
        if (mode == LockMode::kShared) ctx_->AuditRead(*t, page);
      });
}

void TwoPhaseLockingManager::BeginCohort(const txn::TxnPtr& txn,
                                         int cohort_index) {
  (void)cohort_index;
  registry_[txn->id()] = txn;
}

txn::TxnPtr TwoPhaseLockingManager::FindTxn(TxnId id) const {
  auto it = registry_.find(id);
  return it != registry_.end() ? it->second : nullptr;
}

txn::AbortReason TwoPhaseLockingManager::SelfAbortReason() const {
  if (policy_.on_block == OnBlock::kDie) return txn::AbortReason::kDie;
  if (policy_.on_block == OnBlock::kTimeout) return txn::AbortReason::kTimeout;
  return CcManager::SelfAbortReason();
}

std::shared_ptr<sim::Completion<AccessOutcome>>
TwoPhaseLockingManager::RequestAccess(const txn::TxnPtr& txn, int cohort_index,
                                      const PageRef& page, AccessMode mode) {
  (void)cohort_index;
  LockMode lock_mode = LockMode::kShared;
  if (mode == AccessMode::kWrite) {
    // A deferred write remembers the page for the prepare-time upgrade and
    // locks it shared for now. (The version audit still treats it as a
    // blind write: the install happens at commit under the exclusive lock.)
    if (policy_.defer_writes) {
      write_sets_[txn->id()].push_back(page);
    } else {
      lock_mode = LockMode::kExclusive;
    }
  }
  auto result = lock_table_.Request(txn, page, lock_mode);
  if (result.granted_immediately) {
    if (mode == AccessMode::kRead) ctx_->AuditRead(*txn, page);
    return result.completion;
  }

  switch (policy_.on_block) {
    case OnBlock::kDetect:
      // Sec 2.2: "local deadlock detection occurs whenever a cohort blocks".
      DetectLocalDeadlock(txn);
      break;
    case OnBlock::kWound:
      // Wound every younger transaction this request waits for, and wait.
      // The coordinator would ignore a wound in the second commit phase;
      // skipping it here models the cohort-local "already prepared" check.
      for (const auto& blocker : result.blockers) {
        if (!(txn->initial_ts() < blocker->initial_ts())) continue;
        if (blocker->phase() == txn::TxnPhase::kCommitting ||
            blocker->phase() == txn::TxnPhase::kCommitted) {
          continue;  // wound is not fatal (Sec 2.3)
        }
        ctx_->RequestAbort(blocker, blocker->attempt(), node_,
                           txn::AbortReason::kWound);
      }
      break;
    case OnBlock::kDie:
      // Wait only if older than every blocker; otherwise die on the spot:
      // the cancel completes the request with kAborted.
      for (const auto& blocker : result.blockers) {
        if (blocker->initial_ts() < txn->initial_ts()) {
          bool cancelled = lock_table_.CancelRequest(txn->id(), page);
          CCSIM_CHECK_MSG(cancelled, "dying request not found in queue");
          break;
        }
      }
      break;
    case OnBlock::kTimeout:
      // Cancel the request (kAborted) if it is still pending when the timer
      // fires; the closure holds the completion, so its lifetime is safe.
      // ccsim-analyze: coro-ok(the CC service is owned by System alongside the calendar and is destroyed after it; pending timers never outlive this)
      ctx_->simulation().After(ctx_->config().locking.timeout_sec,
                               [this, id = txn->id(), page,
                                completion = result.completion] {
                                 if (completion->done()) return;
                                 lock_table_.CancelRequest(id, page);
                               });
      break;
  }
  return result.completion;
}

void TwoPhaseLockingManager::DetectLocalDeadlock(const txn::TxnPtr& txn) {
  LockTable::DeadlockCycle cycle = lock_table_.FindCycleFrom(txn->id());
  if (cycle.members.empty()) return;
  txn::TxnPtr victim = FindTxn(cycle.victim);
  CCSIM_CHECK_MSG(victim != nullptr, "deadlock victim not registered");
  ctx_->RequestAbort(victim, victim->attempt(), node_,
                     txn::AbortReason::kLocalDeadlock);
}

std::shared_ptr<sim::Completion<Vote>> TwoPhaseLockingManager::Prepare(
    const txn::TxnPtr& txn, int cohort_index) {
  (void)cohort_index;
  auto vote = sim::MakeCompletion<Vote>(&ctx_->simulation());
  std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending;
  if (auto wit = write_sets_.find(txn->id()); wit != write_sets_.end()) {
    for (const PageRef& page : wit->second) {
      auto result = lock_table_.Request(txn, page, LockMode::kExclusive);
      if (result.granted_immediately) continue;
      pending.push_back(result.completion);
      // Detection may pick *this* transaction as the victim; the abort then
      // cancels the pending upgrades through AbortCohort.
      DetectLocalDeadlock(txn);
    }
  }
  if (pending.empty()) {
    vote->Complete(Vote::kYes);
    return vote;
  }
  AwaitUpgrades(txn, std::move(pending), vote);
  return vote;
}

sim::Process TwoPhaseLockingManager::AwaitUpgrades(
    txn::TxnPtr txn,
    std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending,
    std::shared_ptr<sim::Completion<Vote>> vote) {
  (void)txn;
  bool all_granted = true;
  for (auto& completion : pending) {
    AccessOutcome outcome = co_await sim::Await(std::move(completion));
    if (outcome == AccessOutcome::kAborted) all_granted = false;
  }
  // A kNo vote is only observable when the transaction is still alive; an
  // aborted upgrade implies the abort protocol is already running and the
  // cohort will never send this vote (it checks its abort flag).
  vote->Complete(all_granted ? Vote::kYes : Vote::kNo);
}

void TwoPhaseLockingManager::CommitCohort(const txn::TxnPtr& txn,
                                          int cohort_index) {
  write_sets_.erase(txn->id());
  // Install this cohort's updates (audit), then release all locks. By now
  // every written page holds an exclusive lock.
  const auto& spec = txn->cohort_spec(cohort_index);
  for (const auto& access : spec.accesses) {
    if (access.is_write) ctx_->AuditInstallWrite(*txn, access.page);
  }
  lock_table_.ReleaseAll(txn->id(), /*abort_waiters=*/false);
  registry_.erase(txn->id());
}

void TwoPhaseLockingManager::AbortCohort(const txn::TxnPtr& txn,
                                         int cohort_index) {
  (void)cohort_index;
  write_sets_.erase(txn->id());
  lock_table_.ReleaseAll(txn->id(), /*abort_waiters=*/true);
  registry_.erase(txn->id());
}

}  // namespace ccsim::cc
