#ifndef CCSIM_CC_TWO_PHASE_LOCKING_H_
#define CCSIM_CC_TWO_PHASE_LOCKING_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/cc/lock_table.h"
#include "ccsim/common/types.h"
#include "ccsim/sim/process.h"

namespace ccsim::cc {

/// The one lock engine behind every lock-based algorithm. Cohorts lock
/// dynamically as they execute: shared locks for reads, exclusive locks for
/// accesses that update, held until commit or abort completes at this node.
/// The algorithms differ only in what a blocked request does, which the
/// constructor derives once from the algorithm (DESIGN.md decision #15):
///
///  * 2PL (Sec 2.2, [Gray79]) detects: local detection whenever a cohort
///    blocks, plus the rotating Snoop (snoop.h) over every node's
///    LocalWaitsForEdges(); the victim is the cycle's youngest member.
///  * Wound-wait (Sec 2.3, [Rose78]) wounds every younger transaction the
///    requester waits for, unless it is already committing.
///  * Wait-die ([Rose78]) makes a requester that would wait for an older
///    transaction abort itself at once.
///  * Timeout-based 2PL ([Jenq89], footnote 2) detects nothing: a request
///    still waiting after LockingParams::timeout_sec aborts.
///  * Deferred-write 2PL ([Care89], footnote 13) detects like 2PL, but a
///    write locks shared while the cohort executes and upgrades to
///    exclusive in Prepare: shorter exclusive holds, deadlock-prone
///    upgrades at prepare time.
class TwoPhaseLockingManager : public CcManager {
 public:
  TwoPhaseLockingManager(CcContext* ctx, NodeId node);

  void BeginCohort(const txn::TxnPtr& txn, int cohort_index) override;
  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) override;
  /// Upgrades the deferred write locks; votes kYes at once when there are
  /// none (always, unless writes are deferred).
  std::shared_ptr<sim::Completion<Vote>> Prepare(const txn::TxnPtr& txn,
                                                 int cohort_index) override;
  void CommitCohort(const txn::TxnPtr& txn, int cohort_index) override;
  void AbortCohort(const txn::TxnPtr& txn, int cohort_index) override;

  /// Only detection consults waits-for information.
  std::vector<WaitEdge> LocalWaitsForEdges() const override {
    if (policy_.on_block != OnBlock::kDetect) return {};
    return lock_table_.WaitsForEdges();
  }
  bool UsesGlobalDeadlockDetection() const override {
    return policy_.on_block == OnBlock::kDetect;
  }
  txn::AbortReason SelfAbortReason() const override;
  const stats::Tally* blocking_times() const override {
    return &lock_table_.wait_times();
  }
  void ResetStats() override { lock_table_.ResetStats(); }

  /// Transaction handle lookup for victim aborts (local detection and the
  /// Snoop both resolve victims through the managers' registries).
  txn::TxnPtr FindTxn(TxnId id) const;

  const LockTable& lock_table() const { return lock_table_; }

  /// Upgrade-wait process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena() { return ctx_->simulation().arena(); }

 private:
  /// What a request that cannot be granted at once does.
  enum class OnBlock { kDetect, kWound, kDie, kTimeout };
  struct Policy {
    OnBlock on_block;
    /// Writes lock shared at access and upgrade at Prepare (2PL-DW).
    bool defer_writes;
  };
  static Policy PolicyFor(config::CcAlgorithm algorithm);

  /// Runs local deadlock detection (LockTable::FindCycleFrom) and requests
  /// the abort of the youngest member of the cycle reachable from `txn`, if
  /// any (Sec 2.2: detection runs whenever a cohort blocks).
  void DetectLocalDeadlock(const txn::TxnPtr& txn);

  sim::Process AwaitUpgrades(
      txn::TxnPtr txn,
      std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending,
      std::shared_ptr<sim::Completion<Vote>> vote);

  CcContext* ctx_;
  NodeId node_;
  const Policy policy_;
  LockTable lock_table_;
  std::unordered_map<TxnId, txn::TxnPtr> registry_;
  // Pages each transaction will upgrade at prepare time (2PL-DW only).
  std::unordered_map<TxnId, std::vector<PageRef>> write_sets_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_TWO_PHASE_LOCKING_H_
