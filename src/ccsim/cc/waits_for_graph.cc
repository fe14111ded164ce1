#include "ccsim/cc/waits_for_graph.h"

#include <algorithm>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

void WaitsForGraph::AddEdge(const WaitEdge& edge) {
  if (edge.waiter == edge.holder) return;  // self-waits are impossible; guard
  edges_.push_back(edge);
  indexed_ = false;
}

void WaitsForGraph::AddEdges(const std::vector<WaitEdge>& edges) {
  if (edges_.empty()) edges_.reserve(edges.size());
  for (const auto& e : edges) AddEdge(e);
}

std::size_t WaitsForGraph::num_nodes() const {
  Index();
  return nodes_.size();
}

void WaitsForGraph::Index() const {
  if (indexed_) return;
  indexed_ = true;
  // One sort-and-unique of the edge endpoints gives the nodes. Endpoint
  // slot 2i is edge i's holder and 2i + 1 its waiter, so within a run of
  // one TxnId the first slot is its first sighting, whose timestamp is
  // kept (they should all agree: edges from different nodes carry the
  // same initial_ts).
  std::vector<std::pair<TxnId, std::uint32_t>> ends;
  ends.reserve(2 * edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ends.emplace_back(edges_[i].holder, static_cast<std::uint32_t>(2 * i));
    ends.emplace_back(edges_[i].waiter,
                      static_cast<std::uint32_t>(2 * i + 1));
  }
  std::sort(ends.begin(), ends.end());
  std::vector<std::uint32_t> node_of(ends.size());  // endpoint slot -> node
  nodes_.clear();
  for (const auto& [id, slot] : ends) {
    if (nodes_.empty() || nodes_.back().id != id) {
      const WaitEdge& e = edges_[slot / 2];
      nodes_.push_back(Node{id, slot % 2 == 0 ? e.holder_ts : e.waiter_ts});
    }
    node_of[slot] = static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  // Adjacency by counting sort on the waiter, so each node's out-edges
  // keep insertion order. first_out_[w] serves as w's fill cursor, which
  // leaves it at w's end; the shift afterwards restores the starts.
  first_out_.assign(nodes_.size() + 1, 0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ++first_out_[node_of[2 * i + 1] + 1];
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    first_out_[n + 1] += first_out_[n];
  }
  out_.resize(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out_[first_out_[node_of[2 * i + 1]]++] = node_of[2 * i];
  }
  for (std::size_t n = nodes_.size(); n > 0; --n) {
    first_out_[n] = first_out_[n - 1];
  }
  first_out_[0] = 0;
}

std::size_t WaitsForGraph::FindIndex(TxnId id) const {
  auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), id,
      [](const Node& n, TxnId target) { return n.id < target; });
  if (it == nodes_.end() || it->id != id) return nodes_.size();
  return static_cast<std::size_t>(it - nodes_.begin());
}

std::size_t WaitsForGraph::Search(std::uint32_t start,
                                  std::vector<Mark>& marks,
                                  std::vector<Frame>& stack) const {
  // Iterative DFS; the stack is the current path, and a back-edge onto it
  // closes a cycle.
  marks[start] = Mark::kOnPath;
  stack.push_back(Frame{start, first_out_[start]});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.edge == first_out_[top.node + 1]) {
      marks[top.node] = Mark::kDone;
      stack.pop_back();
      continue;
    }
    std::uint32_t next = out_[top.edge++];
    if (marks[next] == Mark::kOnPath) {
      std::size_t pos = stack.size() - 1;
      while (stack[pos].node != next) --pos;
      return pos;
    }
    if (marks[next] == Mark::kNew) {
      marks[next] = Mark::kOnPath;
      stack.push_back(Frame{next, first_out_[next]});
    }
  }
  return kNoCycle;
}

std::uint32_t WaitsForGraph::Youngest(const std::vector<Frame>& stack,
                                      std::size_t pos) const {
  std::uint32_t youngest = stack[pos].node;
  for (; pos < stack.size(); ++pos) {
    // Larger timestamp = more recent startup = younger.
    if (nodes_[youngest].ts < nodes_[stack[pos].node].ts) {
      youngest = stack[pos].node;
    }
  }
  return youngest;
}

std::vector<TxnId> WaitsForGraph::FindCycleFrom(TxnId start) const {
  Index();
  std::size_t start_idx = FindIndex(start);
  if (start_idx == nodes_.size()) return {};
  std::vector<Mark> marks(nodes_.size(), Mark::kNew);
  std::vector<Frame> stack;
  stack.reserve(nodes_.size());
  std::size_t pos =
      Search(static_cast<std::uint32_t>(start_idx), marks, stack);
  if (pos == kNoCycle) return {};
  std::vector<TxnId> cycle;
  for (; pos < stack.size(); ++pos) {
    cycle.push_back(nodes_[stack[pos].node].id);
  }
  return cycle;
}

TxnId WaitsForGraph::YoungestOf(const std::vector<TxnId>& cycle) const {
  CCSIM_CHECK(!cycle.empty());
  Index();
  std::vector<Frame> members;
  for (TxnId id : cycle) {
    std::size_t idx = FindIndex(id);
    CCSIM_CHECK(idx < nodes_.size());
    members.push_back(Frame{static_cast<std::uint32_t>(idx), 0});
  }
  return nodes_[Youngest(members, 0)].id;
}

std::vector<TxnId> WaitsForGraph::ResolveAllDeadlocks() {
  Index();
  AuditInvariants();
  // Searching from each node in TxnId order with fresh marks, and starting
  // over after every victim, finds the same cycles as one pass that keeps
  // the kDone marks throughout: a node that was kDone stays cycle-free as
  // victims are removed, so a fresh search would enter it and come back
  // empty-handed. Only the path marks are reset after a cycle.
  std::vector<TxnId> victims;
  std::vector<Mark> marks(nodes_.size(), Mark::kNew);
  std::vector<Frame> stack;
  stack.reserve(nodes_.size());
  for (std::uint32_t s = 0; s < nodes_.size();) {
    if (marks[s] != Mark::kNew) {
      ++s;
      continue;
    }
    std::size_t pos = Search(s, marks, stack);
    if (pos == kNoCycle) continue;  // s is kDone now
    std::uint32_t victim = Youngest(stack, pos);
    victims.push_back(nodes_[victim].id);
    for (const Frame& f : stack) marks[f.node] = Mark::kNew;
    stack.clear();
    marks[victim] = Mark::kRemoved;  // retry s unless it was the victim
  }
  return victims;
}

void WaitsForGraph::AuditInvariants() const {
  if (!sim::kAuditEnabled) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    CCSIM_DCHECK_MSG(i == 0 || nodes_[i - 1].id < nodes_[i].id,
                     "graph nodes not sorted by TxnId");
    for (std::uint32_t e = first_out_[i]; e < first_out_[i + 1]; ++e) {
      CCSIM_DCHECK_MSG(out_[e] < nodes_.size(),
                       "edge target missing from adjacency");
      CCSIM_DCHECK_MSG(out_[e] != i, "self-wait edge in waits-for graph");
    }
  }
}

}  // namespace ccsim::cc
