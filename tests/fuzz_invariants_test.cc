// Randomized stress tests: drive core mechanisms with random operation
// sequences and check invariants against simple oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "ccsim/cc/lock_table.h"
#include "ccsim/cc/waits_for_graph.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/random.h"
#include "test_util.h"

namespace ccsim {
namespace {

using cc::AccessOutcome;
using cc::LockMode;
using cc::LockTable;
using cc::WaitEdge;
using cc::WaitsForGraph;
using test::MakeTxn;

// --- Lock table fuzz ---------------------------------------------------------

// Random request/release sequences. Invariants:
//  * a granted exclusive lock never coexists with another grant on the page,
//  * after every transaction releases, no waiter is left behind,
//  * every request eventually completes (granted or aborted).
class LockTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockTableFuzz, RandomScheduleMaintainsInvariants) {
  sim::Simulation sim;
  LockTable table(&sim);
  sim::RandomStream rng(GetParam(), 0);

  constexpr int kTxns = 12;
  constexpr int kPages = 6;
  constexpr int kOps = 400;

  std::vector<txn::TxnPtr> txns;
  for (int i = 0; i < kTxns; ++i) {
    txns.push_back(MakeTxn(static_cast<TxnId>(i + 1), 1,
                           {PageRef{0, 0}}, 0, static_cast<double>(i)));
  }
  // Track every outstanding completion and which (txn, page) pairs were
  // requested, to avoid illegal duplicate requests.
  struct Pending {
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
  };
  std::vector<Pending> all;
  std::set<std::pair<TxnId, int>> requested;
  std::set<TxnId> alive(  // txns that have not been released yet
      {});
  for (auto& t : txns) alive.insert(t->id());

  for (int op = 0; op < kOps; ++op) {
    int kind = static_cast<int>(rng.UniformInt(0, 3));
    auto& t = txns[static_cast<std::size_t>(
        rng.UniformInt(0, kTxns - 1))];
    if (kind < 3) {
      if (!alive.count(t->id())) continue;
      int page = static_cast<int>(rng.UniformInt(0, kPages - 1));
      auto key = std::make_pair(t->id(), page);
      bool is_upgrade_ok = !requested.count(key);
      if (!is_upgrade_ok) continue;
      requested.insert(key);
      LockMode mode =
          rng.Bernoulli(0.3) ? LockMode::kExclusive : LockMode::kShared;
      auto result = table.Request(t, PageRef{0, page}, mode);
      all.push_back(Pending{result.completion});
    } else {
      // Release everything the txn holds/waits for; it leaves the game.
      if (!alive.count(t->id())) continue;
      alive.erase(t->id());
      table.ReleaseAll(t->id(), /*abort_waiters=*/true);
      // Forget its requests so invariant bookkeeping stays consistent.
      for (auto it = requested.begin(); it != requested.end();) {
        if (it->first == t->id()) it = requested.erase(it);
        else ++it;
      }
    }
  }
  // Finish: release everyone still alive.
  for (auto& t : txns) {
    table.ReleaseAll(t->id(), true);
  }
  EXPECT_EQ(table.num_locked_pages(), 0u);
  EXPECT_EQ(table.num_waiting_requests(), 0u);
  // No lost wakeups: every request completed one way or the other.
  for (auto& p : all) {
    EXPECT_TRUE(p.completion->done());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Local deadlock detection vs the waits-for graph ------------------------

// Random lock-table states: shared/exclusive requests, upgrades, several
// simultaneous waits per transaction (as 2PL-DW's prepare-time upgrades
// make), queue jumping on and off, partial releases and cancelled
// requests. For every transaction, LockTable::FindCycleFrom must return the
// cycle, member for member, and the victim that WaitsForGraph finds on the
// table's WaitsForEdges().
class LocalDetectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalDetectFuzz, LockTableSearchMatchesGraphOracle) {
  sim::RandomStream rng(GetParam(), 4);
  int cycles_seen = 0;
  for (int round = 0; round < 30; ++round) {
    sim::Simulation sim;
    LockTable table(&sim);
    table.set_allow_queue_jump(round % 2 == 1);
    const int num_txns = static_cast<int>(rng.UniformInt(3, 14));
    const int num_pages = static_cast<int>(rng.UniformInt(2, 8));
    std::vector<txn::TxnPtr> txns;
    for (int i = 0; i < num_txns; ++i) {
      txns.push_back(MakeTxn(static_cast<TxnId>(i + 1), 1, {PageRef{0, 0}}, 0,
                             static_cast<double>(rng.UniformInt(0, 5))));
    }
    // (txn index, page) -> mode requested so far; absent = not requested.
    std::map<std::pair<int, int>, LockMode> requested;
    std::vector<bool> alive(static_cast<std::size_t>(num_txns), true);

    auto check_all = [&] {
      WaitsForGraph graph;
      graph.AddEdges(table.WaitsForEdges());
      for (const auto& t : txns) {
        std::vector<TxnId> expected = graph.FindCycleFrom(t->id());
        LockTable::DeadlockCycle got = table.FindCycleFrom(t->id());
        ASSERT_EQ(std::vector<TxnId>(got.members.begin(), got.members.end()),
                  expected)
            << "seed " << GetParam() << " round " << round << " txn "
            << t->id();
        if (!expected.empty()) {
          EXPECT_EQ(got.victim, graph.YoungestOf(expected));
          ++cycles_seen;
        }
      }
    };

    for (int op = 0; op < 120; ++op) {
      int i = static_cast<int>(rng.UniformInt(0, num_txns - 1));
      const auto& t = txns[static_cast<std::size_t>(i)];
      int page = static_cast<int>(rng.UniformInt(0, num_pages - 1));
      int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (!alive[static_cast<std::size_t>(i)]) continue;
      auto it = requested.find({i, page});
      if (kind < 7) {
        if (it == requested.end()) {
          LockMode mode =
              rng.Bernoulli(0.4) ? LockMode::kExclusive : LockMode::kShared;
          requested[{i, page}] = mode;
          table.Request(t, PageRef{0, page}, mode);
        } else if (it->second == LockMode::kShared &&
                   table.HoldsLock(t->id(), PageRef{0, page})) {
          it->second = LockMode::kExclusive;  // upgrade
          table.Request(t, PageRef{0, page}, LockMode::kExclusive);
        }
      } else if (kind < 9) {
        if (it != requested.end() &&
            table.CancelRequest(t->id(), PageRef{0, page})) {
          // A cancelled upgrade keeps its shared hold.
          if (table.HoldsLock(t->id(), PageRef{0, page})) {
            it->second = LockMode::kShared;
          } else {
            requested.erase(it);
          }
        }
      } else {
        table.ReleaseAll(t->id(), /*abort_waiters=*/true);
        alive[static_cast<std::size_t>(i)] = false;
      }
      check_all();
      if (HasFatalFailure()) return;
    }
    for (const auto& t : txns) table.ReleaseAll(t->id(), true);
  }
  EXPECT_GT(cycles_seen, 0) << "the fuzz never built a deadlock";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalDetectFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- Waits-for graph vs brute-force oracle -----------------------------------

// Brute force: does any cycle exist? (DFS from every node with a recursion
// stack, straightforward and obviously correct for small graphs.)
bool BruteForceHasCycle(
    const std::map<TxnId, std::vector<TxnId>>& adj) {
  std::set<TxnId> nodes;
  for (auto& [a, outs] : adj) {
    nodes.insert(a);
    for (TxnId b : outs) nodes.insert(b);
  }
  std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black
  std::function<bool(TxnId)> dfs = [&](TxnId u) {
    color[u] = 1;
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (TxnId v : it->second) {
        if (color[v] == 1) return true;
        if (color[v] == 0 && dfs(v)) return true;
      }
    }
    color[u] = 2;
    return false;
  };
  for (TxnId n : nodes) {
    if (color[n] == 0 && dfs(n)) return true;
  }
  return false;
}

class WfgFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WfgFuzz, ResolveAllDeadlocksAgreesWithOracleAndTerminates) {
  sim::RandomStream rng(GetParam(), 1);
  for (int round = 0; round < 40; ++round) {
    int n = static_cast<int>(rng.UniformInt(2, 12));
    int edges = static_cast<int>(rng.UniformInt(0, 3 * n));
    WaitsForGraph g;
    std::map<TxnId, std::vector<TxnId>> adj;
    for (int e = 0; e < edges; ++e) {
      TxnId a = static_cast<TxnId>(rng.UniformInt(1, n));
      TxnId b = static_cast<TxnId>(rng.UniformInt(1, n));
      if (a == b) continue;
      g.AddEdge(WaitEdge{a, Timestamp{static_cast<double>(a), a}, b,
                         Timestamp{static_cast<double>(b), b}});
      adj[a].push_back(b);
    }
    bool oracle = BruteForceHasCycle(adj);
    auto victims = g.ResolveAllDeadlocks();
    EXPECT_EQ(!victims.empty(), oracle) << "seed " << GetParam() << " round "
                                        << round;
    // After resolution the remaining graph must be acyclic: removing the
    // victims from the oracle graph kills every cycle.
    for (TxnId v : victims) {
      adj.erase(v);
      for (auto& [a, outs] : adj) {
        outs.erase(std::remove(outs.begin(), outs.end(), v), outs.end());
      }
    }
    EXPECT_FALSE(BruteForceHasCycle(adj));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WfgFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// Reference for ResolveAllDeadlocks(): a fresh DFS from every node in
// TxnId order, starting over after each victim is removed from the graph.
// Edge insertion order decides DFS order; the youngest member (largest
// timestamp, first on ties) of the first cycle found is the victim.
std::vector<TxnId> FreshSearchPerStartVictims(
    const std::vector<WaitEdge>& edges) {
  struct Node {
    Timestamp ts;
    std::vector<TxnId> out;
  };
  std::map<TxnId, Node> nodes;
  for (const WaitEdge& e : edges) {
    if (e.waiter == e.holder) continue;
    nodes.try_emplace(e.holder, Node{e.holder_ts, {}});
    nodes.try_emplace(e.waiter, Node{e.waiter_ts, {}});
    nodes[e.waiter].out.push_back(e.holder);
  }
  auto find_cycle_from = [&nodes](TxnId start) {
    std::map<TxnId, int> state;  // 0 new, 1 on path, 2 done
    std::vector<std::pair<TxnId, std::size_t>> stack{{start, 0}};
    std::vector<TxnId> path{start};
    state[start] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto& outs = nodes.at(node).out;
      if (idx >= outs.size()) {
        state[node] = 2;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      TxnId next = outs[idx++];
      if (state[next] == 1) {
        return std::vector<TxnId>(
            std::find(path.begin(), path.end(), next), path.end());
      }
      if (state[next] == 0) {
        state[next] = 1;
        stack.emplace_back(next, 0);
        path.push_back(next);
      }
    }
    return std::vector<TxnId>{};
  };
  std::vector<TxnId> victims;
  for (;;) {
    std::vector<TxnId> cycle;
    for (const auto& [id, node] : nodes) {
      cycle = find_cycle_from(id);
      if (!cycle.empty()) break;
    }
    if (cycle.empty()) return victims;
    TxnId victim = cycle.front();
    for (TxnId id : cycle) {
      if (nodes.at(victim).ts < nodes.at(id).ts) victim = id;
    }
    victims.push_back(victim);
    nodes.erase(victim);
    for (auto& [id, node] : nodes) {
      node.out.erase(std::remove(node.out.begin(), node.out.end(), victim),
                     node.out.end());
    }
  }
}

TEST_P(WfgFuzz, VictimSequenceMatchesFreshSearchPerStart) {
  sim::RandomStream rng(GetParam(), 3);
  for (int round = 0; round < 200; ++round) {
    int n = static_cast<int>(rng.UniformInt(2, 24));
    int num_edges = static_cast<int>(rng.UniformInt(0, 3 * n));
    // Few distinct start times, so timestamp ties (first member wins) occur.
    std::vector<Timestamp> ts(static_cast<std::size_t>(n) + 1);
    for (auto& t : ts) {
      t = Timestamp{static_cast<double>(rng.UniformInt(0, 3)), 0};
    }
    std::vector<WaitEdge> edges;
    for (int e = 0; e < num_edges; ++e) {
      auto a = static_cast<TxnId>(rng.UniformInt(1, n));
      auto b = static_cast<TxnId>(rng.UniformInt(1, n));
      edges.push_back(WaitEdge{a, ts[a], b, ts[b]});  // self-edges included
    }
    WaitsForGraph g;
    g.AddEdges(edges);
    EXPECT_EQ(g.ResolveAllDeadlocks(), FreshSearchPerStartVictims(edges))
        << "seed " << GetParam() << " round " << round;
  }
}

// --- Processor-sharing CPU conservation --------------------------------------

sim::Process Track(sim::Simulation& sim,
                   std::shared_ptr<sim::Completion<sim::Unit>> c,
                   double* when) {
  co_await sim::Await(std::move(c));
  *when = sim.Now();
}

class CpuFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuFuzz, WorkIsConservedUnderRandomArrivals) {
  sim::Simulation sim;
  resource::Cpu cpu(&sim, 1.0);
  sim::RandomStream rng(GetParam(), 2);

  const int kJobs = 60;
  double total_demand = 0.0;
  std::vector<double> done(kJobs, -1);
  std::vector<double> demand(kJobs);
  double t = 0;
  for (int i = 0; i < kJobs; ++i) {
    t += rng.Exponential(0.05);
    double d = 0.001 + rng.Exponential(0.08);
    bool message = rng.Bernoulli(0.2);
    demand[static_cast<std::size_t>(i)] = d;
    total_demand += d;
    sim.At(t, [&, i, d, message] {
      Track(sim,
            cpu.ExecuteSeconds(d, message ? resource::CpuJobClass::kMessage
                                          : resource::CpuJobClass::kUser),
            &done[static_cast<std::size_t>(i)]);
    });
  }
  sim.Run();
  // Every job completed.
  double last = 0;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_GE(done[static_cast<std::size_t>(i)], 0.0) << "job " << i;
    last = std::max(last, done[static_cast<std::size_t>(i)]);
  }
  // Work conservation: the CPU is never idle while work exists, so the last
  // completion is at most (first arrival + total demand) and at least
  // total demand spread over the busy period.
  EXPECT_LE(last, t + total_demand + 1e-9);
  // Utilization x elapsed == total demand (the busy integral).
  EXPECT_NEAR(cpu.Utilization() * sim.Now(), total_demand, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzz,
                         ::testing::Values(3u, 14u, 159u, 2653u));

}  // namespace
}  // namespace ccsim
