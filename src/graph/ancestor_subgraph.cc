#include "graph/ancestor_subgraph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "graph/scratch_subgraph.h"
#include "obs/profiler.h"

namespace ucr::graph {

namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

}  // namespace

AncestorSubgraph::AncestorSubgraph(const Dag& dag, NodeId sink) : dag_(&dag) {
  assert(sink < dag.node_count());
  // Classic-engine extraction shares the extract phase with the
  // scratch arena (DESIGN.md §14); inert unless the query is sampled.
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kExtract);

  // Reverse BFS from the sink over parent edges discovers the member
  // set in deterministic order; the discovery order is also convenient
  // because we later want the sink's local id.
  std::unordered_map<NodeId, LocalId> local;
  std::deque<NodeId> queue;
  auto discover = [&](NodeId g) -> LocalId {
    auto [it, inserted] =
        local.try_emplace(g, static_cast<LocalId>(members_.size()));
    if (inserted) {
      members_.push_back(g);
      queue.push_back(g);
    }
    return it->second;
  };
  sink_local_ = discover(sink);
  while (!queue.empty()) {
    NodeId g = queue.front();
    queue.pop_front();
    for (NodeId p : dag.parents(g)) discover(p);
  }

  const size_t n = members_.size();

  // Build intra-subgraph adjacency (CSR). Every parent of a member is a
  // member, so parent lists copy verbatim; child lists are filtered.
  child_offsets_.assign(1, 0);
  parent_offsets_.assign(1, 0);
  for (LocalId v = 0; v < n; ++v) {
    const NodeId g = members_[v];
    for (NodeId c : dag.children(g)) {
      auto it = local.find(c);
      if (it != local.end()) children_.push_back(it->second);
    }
    child_offsets_.push_back(children_.size());
    for (NodeId p : dag.parents(g)) {
      parents_.push_back(local.at(p));
    }
    parent_offsets_.push_back(parents_.size());
  }
  edge_count_ = children_.size();
  assert(parents_.size() == children_.size());

  // Topological order (Kahn, FIFO: deterministic).
  {
    std::vector<size_t> indegree(n);
    std::deque<LocalId> ready;
    for (LocalId v = 0; v < n; ++v) {
      indegree[v] = parents(v).size();
      if (indegree[v] == 0) ready.push_back(v);
    }
    topo_.reserve(n);
    while (!ready.empty()) {
      LocalId v = ready.front();
      ready.pop_front();
      topo_.push_back(v);
      for (LocalId c : children(v)) {
        if (--indegree[c] == 0) ready.push_back(c);
      }
    }
    assert(topo_.size() == n && "subgraph of a DAG must be acyclic");
  }

  ComputeMetrics();

  // Retain the lookup table for ToLocal() queries.
  local_index_ = std::move(local);
}

AncestorSubgraph::AncestorSubgraph(const Dag& dag, NodeId sink,
                                   SubgraphScratch& scratch)
    : dag_(&dag) {
  const ScratchSubgraphView view = scratch.Extract(dag, sink);
  const std::span<const NodeId> members = scratch.members();
  members_.assign(members.begin(), members.end());
  sink_local_ = view.sink();
  const size_t n = members_.size();

  child_offsets_.assign(1, 0);
  parent_offsets_.assign(1, 0);
  for (LocalId v = 0; v < n; ++v) {
    const std::span<const LocalId> cs = view.children(v);
    children_.insert(children_.end(), cs.begin(), cs.end());
    child_offsets_.push_back(children_.size());
    const std::span<const LocalId> ps = view.parents(v);
    parents_.insert(parents_.end(), ps.begin(), ps.end());
    parent_offsets_.push_back(parents_.size());
  }
  edge_count_ = children_.size();

  const std::span<const LocalId> topo = view.topological_order();
  topo_.assign(topo.begin(), topo.end());

  ComputeMetrics();

  local_index_.reserve(n);
  for (LocalId v = 0; v < n; ++v) local_index_.emplace(members_[v], v);
}

void AncestorSubgraph::ComputeMetrics() {
  const size_t n = members_.size();
  roots_.clear();
  for (LocalId v = 0; v < n; ++v) {
    if (parents(v).empty()) roots_.push_back(v);
  }

  // Distance and path DP in reverse topological order: children are
  // finalized before their parents.
  shortest_dist_.assign(n, 0);
  longest_dist_.assign(n, 0);
  path_count_.assign(n, 0);
  total_path_len_.assign(n, 0);
  path_count_[sink_local_] = 1;  // The empty path.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const LocalId v = *it;
    if (v == sink_local_) continue;
    uint32_t sd = UINT32_MAX;
    uint32_t ld = 0;
    uint64_t pc = 0;
    uint64_t tl = 0;
    for (LocalId c : children(v)) {
      sd = std::min(sd, shortest_dist_[c] + 1);
      ld = std::max(ld, longest_dist_[c] + 1);
      pc = SatAdd(pc, path_count_[c]);
      // Each path through c is one edge longer than the path from c.
      tl = SatAdd(tl, SatAdd(total_path_len_[c], path_count_[c]));
    }
    // Every non-sink member reaches the sink, so it has children in H.
    assert(!children(v).empty());
    shortest_dist_[v] = sd;
    longest_dist_[v] = ld;
    path_count_[v] = pc;
    total_path_len_[v] = tl;
  }
  for (LocalId r : roots_) depth_ = std::max(depth_, longest_dist_[r]);
}

LocalId AncestorSubgraph::ToLocal(NodeId id) const {
  auto it = local_index_.find(id);
  return it == local_index_.end() ? kInvalidNode : it->second;
}

uint64_t AncestorSubgraph::TotalPathLength(
    std::span<const LocalId> sources) const {
  uint64_t total = 0;
  for (LocalId v : sources) total = SatAdd(total, total_path_len_[v]);
  return total;
}

std::vector<std::vector<uint64_t>> AllDistanceProfiles(
    const AncestorSubgraph& sub) {
  // result[v][L] = number of length-L paths from v to the sink, in
  // reverse topological order so children are final before parents.
  const size_t n = sub.member_count();
  std::vector<std::vector<uint64_t>> prof(n);
  prof[sub.sink()] = {1};  // One empty path of length 0.
  const auto topo = sub.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const LocalId v = *it;
    if (v == sub.sink()) continue;
    std::vector<uint64_t>& out = prof[v];
    out.assign(sub.longest_distance_to_sink(v) + 1, 0);
    for (LocalId c : sub.children(v)) {
      const std::vector<uint64_t>& child = prof[c];
      for (size_t len = 0; len < child.size(); ++len) {
        if (child[len] == 0) continue;
        out[len + 1] = SatAdd(out[len + 1], child[len]);
      }
    }
  }
  return prof;
}

}  // namespace ucr::graph
