#ifndef CCSIM_CC_LOCK_TABLE_H_
#define CCSIM_CC_LOCK_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/flat_hash.h"
#include "ccsim/common/small_vec.h"
#include "ccsim/common/types.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/tally.h"
#include "ccsim/txn/transaction.h"

namespace ccsim::cc {

/// Lock modes: read locks can be shared, write locks cannot (Sec 2.2).
enum class LockMode { kShared, kExclusive };

/// Returns true when a lock held in `held` is compatible with a request for
/// `requested`.
constexpr bool Compatible(LockMode held, LockMode requested) {
  return held == LockMode::kShared && requested == LockMode::kShared;
}

/// Page-level lock table: the mechanism every lock-based algorithm shares.
/// Pure mechanism - conflict *policy* (detect deadlocks, wound, die or time
/// out) lives in the owning TwoPhaseLockingManager, which inspects the
/// conflicting transactions returned by Request().
///
/// Queue discipline: FIFO, except that upgrade requests (shared -> exclusive
/// by a current holder) wait at the front, ahead of ordinary waiters.
/// A request never jumps an occupied queue even if it is compatible with the
/// current holders (prevents writer starvation).
///
/// Storage is sparse and flat (DESIGN.md decision #12): entries live in an
/// open-addressing table keyed by page id, holders and waiters in
/// small-vectors with inline capacity. A table tracking millions of pages
/// allocates nothing per lock in the common case — the former
/// map/deque-node churn dominated the megascale memory profile. Holders are
/// kept sorted by TxnId so every holder iteration (blockers, waits-for
/// edges, grant checks) sees the exact order the old std::map gave:
/// deadlock victim choice, and hence the determinism goldens, are
/// byte-identical.
class LockTable {
 public:
  explicit LockTable(sim::Simulation* sim) : sim_(sim) {}
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Invoked at the exact moment a previously blocked request is granted
  /// (immediate grants are visible to the caller via RequestResult). Used by
  /// the owning manager for read-version auditing.
  using GrantCallback =
      std::function<void(const txn::TxnPtr&, const PageRef&, LockMode)>;
  void set_on_delayed_grant(GrantCallback cb) {
    on_delayed_grant_ = std::move(cb);
  }

  /// Queue policy. When false (default, the classic Gray-style manager a la
  /// [Gray79]), a new request never jumps an occupied queue even if it is
  /// compatible with the current holders - writers cannot starve, but
  /// readers arriving behind a queued writer wait and add waits-for edges.
  /// When true, a request compatible with every current holder is granted
  /// immediately regardless of queued waiters.
  void set_allow_queue_jump(bool allow) { allow_queue_jump_ = allow; }
  bool allow_queue_jump() const { return allow_queue_jump_; }

  struct RequestResult {
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
    bool granted_immediately = false;
    /// When queued: the transactions this request now waits for (incompatible
    /// holders plus incompatible requests queued ahead). Each entry carries
    /// the initial timestamp needed by wound/victim policies.
    std::vector<txn::TxnPtr> blockers;
  };

  /// Requests `mode` on `page` for `txn`. Re-requesting a held mode (or a
  /// weaker one) grants immediately; holding kShared and requesting
  /// kExclusive queues an upgrade.
  RequestResult Request(const txn::TxnPtr& txn, const PageRef& page,
                        LockMode mode);

  /// Releases everything `txn` holds or waits for on this table. Pending
  /// requests complete with kAborted if `abort_waiters` is true (abort path;
  /// commit never leaves pending requests). Wakes newly grantable waiters.
  void ReleaseAll(TxnId txn, bool abort_waiters);

  /// Cancels one waiting request of `txn` on `page`, completing it with
  /// kAborted and waking newly grantable waiters. Held locks are untouched.
  /// Returns false if no such waiting request exists (e.g. it was granted
  /// in the meantime). Used by wait-die (the requester "dies") and by
  /// timeout-based blocking.
  bool CancelRequest(TxnId txn, const PageRef& page);

  /// Txn-level waits-for edges over the current queues, for the Snoop's
  /// global graph. Emitted by waited page key ascending; per waiter the
  /// conflicting holders (TxnId order), then the conflicting waiters queued
  /// ahead (queue order).
  std::vector<WaitEdge> WaitsForEdges() const;

  /// A cycle found by FindCycleFrom(). `members` views scratch storage that
  /// the next FindCycleFrom() call overwrites.
  struct DeadlockCycle {
    /// DFS path order, starting at the member the search re-entered; empty
    /// when there is no cycle.
    std::span<const TxnId> members;
    /// Youngest member (largest initial_ts, first on ties): the victim.
    TxnId victim = 0;
  };

  /// Local deadlock detection (Sec 2.2): a depth-first search from `start`
  /// straight over the queues, building no edge list and no graph. Each
  /// transaction's out-neighbours are generated in exactly the order
  /// WaitsForEdges() emits its edges, so the cycle and victim are the ones
  /// WaitsForGraph::FindCycleFrom(start) finds on those edges (DESIGN.md
  /// decision #6). Costs what the reachable waiters cost, not what the
  /// locked pages cost.
  DeadlockCycle FindCycleFrom(TxnId start) const;

  /// Whether `txn` has a request queued on any page of this table.
  bool IsWaiting(TxnId txn) const;
  bool HoldsLock(TxnId txn, const PageRef& page) const;
  std::size_t num_locked_pages() const { return entries_.size(); }
  std::size_t num_waiting_requests() const { return waiting_count_; }

  /// Time blocked requests waited before being granted.
  const stats::Tally& wait_times() const { return wait_times_; }
  void ResetStats() { wait_times_.Reset(); }

  /// Audit-mode consistency sweep over every entry: holders are sorted and
  /// mutually compatible, no transaction is both granted and waiting on one
  /// page (except a queued upgrade), upgrades form a prefix of the queue, no
  /// transaction is queued twice, waiting_count_ matches the queues, and
  /// txn_keys_ covers every holder and waiter and nothing else. No-op unless
  /// built with CCSIM_AUDIT.
  void AuditInvariants() const;

 private:
  struct Holder {
    TxnId id;
    LockMode mode;
    txn::TxnPtr txn;  // live handle, for blocker reporting
  };
  struct Waiter {
    txn::TxnPtr txn;
    LockMode mode;
    bool is_upgrade;
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
    sim::SimTime since;
  };
  using WaitQueue = common::SmallVec<Waiter, 2>;
  /// Sized for the dominant population: tens of thousands of pages are
  /// locked at once in a megascale run, almost all with a single holder and
  /// nobody waiting (measured ~25k locked vs ~150 waiting at 256 nodes).
  /// One inline holder, and the wait queue behind a pointer that exists
  /// only while someone waits, keep the flat table's slots at 72 bytes
  /// instead of 176 - table capacity is high-water, so slot size is the
  /// multiplier on the whole footprint.
  struct Entry {
    /// Sorted by TxnId ascending; at most one holder when exclusive.
    common::SmallVec<Holder, 1> holders;
    /// FIFO, upgrades form a prefix. Null when empty (the common case);
    /// dropped eagerly when the last waiter leaves.
    std::unique_ptr<WaitQueue> queue;
  };
#if defined(__x86_64__) && defined(__GLIBCXX__)
  // The megascale memory figure (DESIGN.md decision #12) rests on this
  // size: with its 8-byte key, one 72-byte slot of the flat table.
  static_assert(sizeof(Entry) == 64, "lock-table Entry grew");
#endif
  using KeyList = common::SmallVec<std::uint64_t, 8>;

  /// One page `txn` waits on, during a FindCycleFrom() search: its entry and
  /// `txn`'s position in that entry's queue.
  struct WaitSlot {
    std::uint64_t key = 0;
    const Entry* entry = nullptr;
    std::size_t pos = 0;
  };
  /// One transaction on the FindCycleFrom() path. Its waits are
  /// dfs_waits_[wait_begin, wait_end); `wait` and `edge` are the cursor of
  /// its next out-neighbour.
  struct DfsFrame {
    const txn::Transaction* txn = nullptr;
    std::size_t wait_begin = 0;
    std::size_t wait_end = 0;
    std::size_t wait = 0;
    std::size_t edge = 0;
  };

  static std::size_t QueueSize(const Entry& entry) {
    return entry.queue ? entry.queue->size() : 0;
  }
  /// The queue, allocating it on first use.
  static WaitQueue& EnsureQueue(Entry& entry);
  /// Frees the queue allocation once it is empty again.
  static void PruneQueue(Entry& entry);

  /// Holder slot for `txn` in sorted position, or nullptr.
  static Holder* FindHolder(Entry& entry, TxnId txn);
  static const Holder* FindHolder(const Entry& entry, TxnId txn);
  /// Inserts keeping holders sorted by TxnId.
  static void InsertHolder(Entry& entry, TxnId txn, LockMode mode,
                           txn::TxnPtr handle);
  static void EraseHolder(Entry& entry, TxnId txn);

  bool CanGrant(const Entry& entry, TxnId txn, LockMode mode) const;
  void PumpQueue(std::uint64_t key);

  /// Appends the pages `txn` waits on to dfs_waits_, key ascending, and
  /// returns where they begin.
  std::size_t CollectWaits(TxnId txn) const;
  /// Advances `frame` to its next out-neighbour; nullptr when exhausted.
  const txn::Transaction* NextNeighbour(DfsFrame& frame) const;

  sim::Simulation* sim_;
  GrantCallback on_delayed_grant_;
  bool allow_queue_jump_ = false;
  common::FlatHashMap<std::uint64_t, Entry> entries_;
  // All lock keys a txn holds or waits on (for ReleaseAll).
  common::FlatHashMap<TxnId, KeyList> txn_keys_;
  stats::Tally wait_times_;
  std::size_t waiting_count_ = 0;

  // FindCycleFrom() scratch, reused across calls (not lock state).
  mutable common::FlatHashMap<TxnId, unsigned char> dfs_marks_;
  mutable std::vector<DfsFrame> dfs_stack_;
  mutable std::vector<WaitSlot> dfs_waits_;
  mutable std::vector<TxnId> dfs_cycle_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_LOCK_TABLE_H_
