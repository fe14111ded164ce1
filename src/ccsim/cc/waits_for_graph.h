#ifndef CCSIM_CC_WAITS_FOR_GRAPH_H_
#define CCSIM_CC_WAITS_FOR_GRAPH_H_

#include <cstdint>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// A transaction-level waits-for graph built from WaitEdge lists: the union
/// of all nodes' edges for the Snoop's global detection (local detection
/// searches the lock table directly, LockTable::FindCycleFrom, and uses
/// this graph only as its test oracle). Victim selection follows Sec 2.2:
/// abort the transaction with the most recent initial startup time among
/// those in the cycle.
class WaitsForGraph {
 public:
  WaitsForGraph() = default;

  void AddEdges(const std::vector<WaitEdge>& edges);
  void AddEdge(const WaitEdge& edge);

  std::size_t num_nodes() const;
  std::size_t num_edges() const { return edges_.size(); }

  /// Finds a cycle reachable from `start`, if any, and returns its members
  /// (empty if none): the DFS path suffix from the node it re-entered.
  std::vector<TxnId> FindCycleFrom(TxnId start) const;

  /// Global detection: repeatedly finds a cycle anywhere in the graph,
  /// selects the youngest member as victim, removes it, and continues until
  /// the graph is acyclic. Returns the victims in detection order.
  std::vector<TxnId> ResolveAllDeadlocks();

  /// Youngest (most recent initial startup) member of `cycle`; the first
  /// member wins ties.
  TxnId YoungestOf(const std::vector<TxnId>& cycle) const;

 private:
  // Nodes are sorted by TxnId, so ResolveAllDeadlocks() tries start nodes
  // in TxnId order, and out-edges keep edge insertion order (it decides DFS
  // order): the cycle found first, and with it the deadlock victim, is
  // identical across runs and stdlib versions. The index over the edges is
  // built once, on the first query after edges were added: one
  // sort-and-unique for the nodes, adjacency as node indices (DESIGN.md
  // decision #12).
  struct Node {
    TxnId id;
    Timestamp ts;
  };
  /// DFS marks. kDone means fully explored with no cycle found: no cycle
  /// is reachable from the node, and removing nodes cannot create one.
  enum class Mark : unsigned char { kNew, kOnPath, kDone, kRemoved };
  struct Frame {
    std::uint32_t node;
    std::uint32_t edge;  // next position in out_
  };

  /// Builds nodes_/first_out_/out_ from edges_ unless already current.
  void Index() const;
  /// Index of `id` in nodes_, or nodes_.size() if absent.
  std::size_t FindIndex(TxnId id) const;
  static constexpr std::size_t kNoCycle = static_cast<std::size_t>(-1);
  /// DFS from `start` that enters only kNew nodes. On a cycle, returns the
  /// position in `stack` (which then holds the path) of the re-entered
  /// node; otherwise marks everything it explored kDone and returns
  /// kNoCycle.
  std::size_t Search(std::uint32_t start, std::vector<Mark>& marks,
                     std::vector<Frame>& stack) const;
  /// Youngest node among `stack[pos..]`.
  std::uint32_t Youngest(const std::vector<Frame>& stack,
                         std::size_t pos) const;

  /// Audit-mode consistency sweep: nodes are sorted by TxnId, every edge
  /// target is a node, and no node waits for itself. No-op unless built
  /// with CCSIM_AUDIT.
  void AuditInvariants() const;

  std::vector<WaitEdge> edges_;  // self-edges dropped
  mutable bool indexed_ = true;
  mutable std::vector<Node> nodes_;
  mutable std::vector<std::uint32_t> first_out_;  // CSR offsets into out_
  mutable std::vector<std::uint32_t> out_;        // out-edge target nodes
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_WAITS_FOR_GRAPH_H_
