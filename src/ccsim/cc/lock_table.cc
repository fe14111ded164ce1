#include "ccsim/cc/lock_table.h"

#include <algorithm>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

namespace {
bool Conflicts(LockMode a, LockMode b) { return !Compatible(a, b); }
}  // namespace

LockTable::WaitQueue& LockTable::EnsureQueue(Entry& entry) {
  if (!entry.queue) entry.queue = std::make_unique<WaitQueue>();
  return *entry.queue;
}

void LockTable::PruneQueue(Entry& entry) {
  if (entry.queue && entry.queue->empty()) entry.queue.reset();
}

LockTable::Holder* LockTable::FindHolder(Entry& entry, TxnId txn) {
  for (Holder& h : entry.holders) {
    if (h.id == txn) return &h;
    if (h.id > txn) break;  // sorted
  }
  return nullptr;
}

const LockTable::Holder* LockTable::FindHolder(const Entry& entry, TxnId txn) {
  return FindHolder(const_cast<Entry&>(entry), txn);
}

void LockTable::InsertHolder(Entry& entry, TxnId txn, LockMode mode,
                             txn::TxnPtr handle) {
  std::size_t pos = 0;
  while (pos < entry.holders.size() && entry.holders[pos].id < txn) ++pos;
  entry.holders.insert(pos, Holder{txn, mode, std::move(handle)});
}

void LockTable::EraseHolder(Entry& entry, TxnId txn) {
  for (std::size_t i = 0; i < entry.holders.size(); ++i) {
    if (entry.holders[i].id == txn) {
      entry.holders.erase(i);
      return;
    }
  }
}

// ccsim-analyze: hot-path(once per page access of every transaction)
LockTable::RequestResult LockTable::Request(const txn::TxnPtr& txn,
                                            const PageRef& page,
                                            LockMode mode) {
  std::uint64_t key = page.Key();
  Entry& entry = entries_[key];
  TxnId id = txn->id();

  RequestResult result;
  result.completion = sim::MakeCompletion<AccessOutcome>(sim_);

  Holder* held = FindHolder(entry, id);
  bool is_upgrade = false;
  if (held != nullptr) {
    if (held->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      // Re-request of an already-covered mode: trivially granted.
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
    is_upgrade = true;  // holds kShared, wants kExclusive
    if (entry.holders.size() == 1) {
      // Sole holder: convert in place.
      held->mode = LockMode::kExclusive;
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  } else if (QueueSize(entry) == 0 || allow_queue_jump_) {
    bool compatible = true;
    for (const Holder& h : entry.holders) {
      if (Conflicts(h.mode, mode)) {
        compatible = false;
        break;
      }
    }
    if (compatible && allow_queue_jump_ && entry.holders.empty() &&
        QueueSize(entry) != 0) {
      // Nothing is held but waiters are pending (all blocked on each other
      // via queue order after a release): do not overtake them.
      compatible = false;
    }
    if (compatible) {
      InsertHolder(entry, id, mode, txn);
      txn_keys_[id].push_back(key);
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  }

  // Must wait. Collect blockers: incompatible holders (self excluded, TxnId
  // ascending) and conflicting requests queued ahead.
  for (const Holder& h : entry.holders) {
    if (h.id == id) continue;
    if (is_upgrade || Conflicts(h.mode, mode)) {
      result.blockers.push_back(h.txn);
    }
  }

  // Upgrades wait at the front, after any upgrades already queued.
  WaitQueue& queue = EnsureQueue(entry);
  std::size_t insert_pos = queue.size();
  if (is_upgrade) {
    insert_pos = 0;
    while (insert_pos < queue.size() && queue[insert_pos].is_upgrade) {
      ++insert_pos;
    }
  }
  for (std::size_t i = 0; i < insert_pos; ++i) {
    const Waiter& ahead = queue[i];
    CCSIM_CHECK_MSG(ahead.txn->id() != id,
                    "transaction enqueued twice on one lock");
    if (Conflicts(ahead.mode, mode) || ahead.mode == LockMode::kExclusive ||
        mode == LockMode::kExclusive) {
      result.blockers.push_back(ahead.txn);
    }
  }

  queue.insert(insert_pos, Waiter{txn, mode, is_upgrade, result.completion,
                               sim_->Now()});
  ++waiting_count_;
  txn_keys_[id].push_back(key);
  AuditInvariants();
  return result;
}

bool LockTable::CanGrant(const Entry& entry, TxnId txn, LockMode mode) const {
  for (const Holder& h : entry.holders) {
    if (h.id == txn) continue;  // upgrade: ignore own shared hold
    if (Conflicts(h.mode, mode)) return false;
  }
  return true;
}

// ccsim-analyze: hot-path(runs on every release of a contended page)
void LockTable::PumpQueue(std::uint64_t key) {
  Entry* entry = entries_.Find(key);
  if (entry == nullptr) return;
  // Strict FIFO: grant only the compatible prefix of the queue. With queue
  // jumping: grant every waiter compatible with the current holders (the
  // "maximum concurrency" policy; readers can overtake queued writers).
  std::size_t scan = 0;
  while (scan < QueueSize(*entry)) {
    Waiter& w = (*entry->queue)[scan];
    if (!CanGrant(*entry, w.txn->id(), w.mode)) {
      if (!allow_queue_jump_) break;
      ++scan;
      continue;
    }
    Waiter granted = std::move(w);
    entry->queue->erase(scan);
    --waiting_count_;
    TxnId id = granted.txn->id();
    Holder* held = FindHolder(*entry, id);
    if (held != nullptr) {
      CCSIM_CHECK(granted.is_upgrade);
      held->mode = LockMode::kExclusive;
    } else {
      InsertHolder(*entry, id, granted.mode, granted.txn);
      // Waiting already registered this key in txn_keys_.
    }
    wait_times_.Record(sim_->Now() - granted.since);
    if (on_delayed_grant_) {
      PageRef page{static_cast<FileId>(key >> 32),
                   static_cast<int>(key & 0xffffffffu)};
      on_delayed_grant_(granted.txn, page, granted.mode);
    }
    granted.completion->Complete(AccessOutcome::kGranted);
  }
  PruneQueue(*entry);
  if (entry->holders.empty() && !entry->queue) entries_.Erase(key);
}

// ccsim-analyze: hot-path(once per commit/abort, over every held lock)
void LockTable::ReleaseAll(TxnId txn, bool abort_waiters) {
  KeyList* kit = txn_keys_.Find(txn);
  if (kit == nullptr) return;
  KeyList keys = std::move(*kit);
  txn_keys_.Erase(txn);
  // De-duplicate (a txn can both hold and wait-upgrade on one key).
  std::sort(keys.begin(), keys.end());
  keys.truncate(static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin()));

  for (std::uint64_t key : keys) {
    Entry* entry = entries_.Find(key);
    if (entry == nullptr) continue;
    EraseHolder(*entry, txn);
    for (std::size_t i = 0; i < QueueSize(*entry);) {
      if ((*entry->queue)[i].txn->id() == txn) {
        CCSIM_CHECK_MSG(abort_waiters,
                        "commit released a lock with a pending request");
        --waiting_count_;
        (*entry->queue)[i].completion->Complete(AccessOutcome::kAborted);
        entry->queue->erase(i);
      } else {
        ++i;
      }
    }
    PruneQueue(*entry);
    PumpQueue(key);
    // PumpQueue may have erased the entry already; re-find and erase if
    // empty.
    entry = entries_.Find(key);
    if (entry != nullptr && entry->holders.empty() && !entry->queue) {
      entries_.Erase(key);
    }
  }
  AuditInvariants();
}

bool LockTable::CancelRequest(TxnId txn, const PageRef& page) {
  Entry* entry = entries_.Find(page.Key());
  if (entry == nullptr) return false;
  for (std::size_t i = 0; i < QueueSize(*entry); ++i) {
    if ((*entry->queue)[i].txn->id() != txn) continue;
    auto completion = (*entry->queue)[i].completion;
    entry->queue->erase(i);
    PruneQueue(*entry);
    --waiting_count_;
    // Drop the wait's registration: the key's last occurrence, since a
    // queued upgrade lists it for the shared hold first. Erasing in place
    // keeps the rest of the list in request order.
    KeyList& keys = *txn_keys_.Find(txn);
    std::size_t last = keys.size() - 1;
    while (keys[last] != page.Key()) --last;
    keys.erase(last);
    if (keys.empty()) txn_keys_.Erase(txn);
    completion->Complete(AccessOutcome::kAborted);
    PumpQueue(page.Key());
    entry = entries_.Find(page.Key());
    if (entry != nullptr && entry->holders.empty() && !entry->queue) {
      entries_.Erase(page.Key());
    }
    AuditInvariants();
    return true;
  }
  return false;
}

std::vector<WaitEdge> LockTable::WaitsForEdges() const {
  std::vector<WaitEdge> edges;
  // The order edges are emitted decides the DFS order (and thus the cycle
  // found first, and thus the deadlock victim) in the WaitsForGraph built
  // from them. entries_ iterates in hash-table order, so walk keys in
  // sorted order instead: the edge list is identical across runs and
  // stdlib versions.
  // Only pages with a queue carry edges, so only those are sorted: the
  // cost is O(waiters), not O(locked pages) (almost every locked page has
  // a single holder and nobody waiting).
  std::vector<std::uint64_t> keys;
  keys.reserve(waiting_count_);
  // ccsim-lint: unordered-iter-ok(collects keys only; sorted before use)
  entries_.ForEach([&keys](std::uint64_t key, const Entry& entry) {
    if (entry.queue) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    const Entry& entry = *entries_.Find(key);
    for (std::size_t i = 0; i < QueueSize(entry); ++i) {
      const Waiter& w = (*entry.queue)[i];
      for (const Holder& h : entry.holders) {
        if (h.id == w.txn->id()) continue;
        if (w.is_upgrade || Conflicts(h.mode, w.mode)) {
          edges.push_back(WaitEdge{w.txn->id(), w.txn->initial_ts(), h.id,
                                   h.txn->initial_ts()});
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        const Waiter& ahead = (*entry.queue)[j];
        if (ahead.mode == LockMode::kExclusive ||
            w.mode == LockMode::kExclusive) {
          edges.push_back(WaitEdge{w.txn->id(), w.txn->initial_ts(),
                                   ahead.txn->id(), ahead.txn->initial_ts()});
        }
      }
    }
  }
  return edges;
}

std::size_t LockTable::CollectWaits(TxnId txn) const {
  std::size_t begin = dfs_waits_.size();
  const KeyList* keys = txn_keys_.Find(txn);
  if (keys == nullptr) return begin;
  for (std::uint64_t key : *keys) {
    const Entry* entry = entries_.Find(key);
    if (entry == nullptr || !entry->queue) continue;
    const WaitQueue& queue = *entry->queue;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].txn->id() == txn) {
        dfs_waits_.push_back(WaitSlot{key, entry, i});
        break;
      }
    }
  }
  // A queued upgrade's key sits in txn_keys_ twice (held and waited).
  auto by_key = [](const WaitSlot& a, const WaitSlot& b) {
    return a.key < b.key;
  };
  auto first = dfs_waits_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, dfs_waits_.end(), by_key);
  dfs_waits_.erase(
      std::unique(first, dfs_waits_.end(),
                  [](const WaitSlot& a, const WaitSlot& b) {
                    return a.key == b.key;
                  }),
      dfs_waits_.end());
  return begin;
}

const txn::Transaction* LockTable::NextNeighbour(DfsFrame& frame) const {
  // The same tests, in the same order, as WaitsForEdges() applies to this
  // waiter.
  TxnId self = frame.txn->id();
  for (; frame.wait < frame.wait_end; ++frame.wait, frame.edge = 0) {
    const WaitSlot& slot = dfs_waits_[frame.wait];
    const Entry& entry = *slot.entry;
    const Waiter& w = (*entry.queue)[slot.pos];
    std::size_t num_holders = entry.holders.size();
    while (frame.edge < num_holders) {
      const Holder& h = entry.holders[frame.edge++];
      if (h.id != self && (w.is_upgrade || Conflicts(h.mode, w.mode))) {
        return h.txn.get();
      }
    }
    while (frame.edge < num_holders + slot.pos) {
      const Waiter& ahead = (*entry.queue)[frame.edge++ - num_holders];
      if (ahead.mode == LockMode::kExclusive ||
          w.mode == LockMode::kExclusive) {
        return ahead.txn.get();
      }
    }
  }
  return nullptr;
}

// ccsim-analyze: hot-path(runs whenever a cohort blocks under 2PL)
LockTable::DeadlockCycle LockTable::FindCycleFrom(TxnId start) const {
  constexpr unsigned char kOnPath = 1;
  constexpr unsigned char kDone = 2;
  dfs_marks_.Clear();
  dfs_stack_.clear();
  dfs_waits_.clear();
  dfs_cycle_.clear();

  std::size_t begin = CollectWaits(start);
  if (dfs_waits_.size() == begin) return {};  // not waiting: no out-edges
  const WaitSlot& own = dfs_waits_[begin];
  dfs_stack_.push_back(DfsFrame{(*own.entry->queue)[own.pos].txn.get(),
                                begin, dfs_waits_.size(), begin, 0});
  dfs_marks_[start] = kOnPath;

  while (!dfs_stack_.empty()) {
    const txn::Transaction* next = NextNeighbour(dfs_stack_.back());
    if (next == nullptr) {
      const DfsFrame& done = dfs_stack_.back();
      dfs_marks_[done.txn->id()] = kDone;
      dfs_waits_.erase(
          dfs_waits_.begin() + static_cast<std::ptrdiff_t>(done.wait_begin),
          dfs_waits_.end());
      dfs_stack_.pop_back();
      continue;
    }
    auto [mark, fresh] = dfs_marks_.TryEmplace(next->id(), kOnPath);
    if (fresh) {
      std::size_t waits = CollectWaits(next->id());
      dfs_stack_.push_back(
          DfsFrame{next, waits, dfs_waits_.size(), waits, 0});
      continue;
    }
    if (*mark != kOnPath) continue;
    // Back-edge onto the path: the cycle is the path suffix from `next`.
    std::size_t pos = dfs_stack_.size() - 1;
    while (dfs_stack_[pos].txn->id() != next->id()) --pos;
    const txn::Transaction* youngest = next;
    for (; pos < dfs_stack_.size(); ++pos) {
      const txn::Transaction* member = dfs_stack_[pos].txn;
      dfs_cycle_.push_back(member->id());
      if (youngest->initial_ts() < member->initial_ts()) youngest = member;
    }
    return DeadlockCycle{dfs_cycle_, youngest->id()};
  }
  return {};
}

bool LockTable::IsWaiting(TxnId txn) const {
  const KeyList* kit = txn_keys_.Find(txn);
  if (kit == nullptr) return false;
  for (std::uint64_t key : *kit) {
    const Entry* entry = entries_.Find(key);
    if (entry == nullptr || !entry->queue) continue;
    for (const Waiter& w : *entry->queue) {
      if (w.txn->id() == txn) return true;
    }
  }
  return false;
}

bool LockTable::HoldsLock(TxnId txn, const PageRef& page) const {
  const Entry* entry = entries_.Find(page.Key());
  if (entry == nullptr) return false;
  return FindHolder(*entry, txn) != nullptr;
}

void LockTable::AuditInvariants() const {
  if (!sim::kAuditEnabled) return;
  std::size_t queued = 0;
  // Audit sweep in table order; per-entry checks are independent.
  // ccsim-lint: unordered-iter-ok(pass/fail audit; order-independent checks)
  entries_.ForEach([&](std::uint64_t key, const Entry& entry) {
    CCSIM_DCHECK_MSG(!entry.holders.empty() || QueueSize(entry) != 0,
                     "empty lock entry not erased");
    CCSIM_DCHECK_MSG(!entry.queue || !entry.queue->empty(),
                     "empty wait queue not pruned");
    bool any_exclusive = false;
    for (std::size_t i = 0; i < entry.holders.size(); ++i) {
      const Holder& h = entry.holders[i];
      CCSIM_DCHECK_MSG(h.txn != nullptr,
                       "holder without a live transaction handle");
      CCSIM_DCHECK_MSG(i == 0 || entry.holders[i - 1].id < h.id,
                       "holders not sorted by TxnId");
      if (h.mode == LockMode::kExclusive) any_exclusive = true;
      const KeyList* kit = txn_keys_.Find(h.id);
      CCSIM_DCHECK_MSG(
          kit != nullptr &&
              std::find(kit->begin(), kit->end(), key) != kit->end(),
          "holder not registered in txn_keys_");
    }
    CCSIM_DCHECK_MSG(!any_exclusive || entry.holders.size() == 1,
                     "exclusive lock shared with another holder");

    queued += QueueSize(entry);
    bool past_upgrade_prefix = false;
    for (std::size_t i = 0; i < QueueSize(entry); ++i) {
      const Waiter& w = (*entry.queue)[i];
      TxnId id = w.txn->id();
      if (!w.is_upgrade) {
        past_upgrade_prefix = true;
      } else {
        CCSIM_DCHECK_MSG(!past_upgrade_prefix,
                         "upgrade queued behind a non-upgrade waiter");
        CCSIM_DCHECK_MSG(FindHolder(entry, id) != nullptr,
                         "queued upgrade whose shared hold vanished");
      }
      // "No granted/waiting overlap": only an upgrade may appear on both
      // sides of one entry.
      CCSIM_DCHECK_MSG(w.is_upgrade || FindHolder(entry, id) == nullptr,
                       "transaction both holds and waits on one page");
      for (std::size_t j = i + 1; j < QueueSize(entry); ++j) {
        CCSIM_DCHECK_MSG((*entry.queue)[j].txn->id() != id,
                         "transaction queued twice on one lock");
      }
      const KeyList* kit = txn_keys_.Find(id);
      CCSIM_DCHECK_MSG(
          kit != nullptr &&
              std::find(kit->begin(), kit->end(), key) != kit->end(),
          "waiter not registered in txn_keys_");
    }
  });
  CCSIM_DCHECK_MSG(queued == waiting_count_,
                   "waiting_count_ out of sync with lock queues");

  // The forward direction: every page a transaction's list names is held or
  // waited on by it, and listed at most twice (held, plus a queued or
  // granted upgrade).
  // ccsim-lint: unordered-iter-ok(pass/fail audit; order-independent checks)
  txn_keys_.ForEach([&](TxnId id, const KeyList& keys) {
    for (std::uint64_t key : keys) {
      CCSIM_DCHECK_MSG(std::count(keys.begin(), keys.end(), key) <= 2,
                       "page listed more than twice in txn_keys_");
      const Entry* entry = entries_.Find(key);
      bool waits = false;
      for (std::size_t i = 0; entry != nullptr && i < QueueSize(*entry); ++i) {
        if ((*entry->queue)[i].txn->id() == id) waits = true;
      }
      CCSIM_DCHECK_MSG(
          entry != nullptr && (waits || FindHolder(*entry, id) != nullptr),
          "txn_keys_ lists a page its transaction neither holds nor waits on");
    }
  });
}

}  // namespace ccsim::cc
