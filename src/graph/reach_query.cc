#include "graph/reach_query.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <utility>

#include "obs/metrics.h"

namespace ucr::graph {

namespace {

obs::Counter& TraversalFallbacks() {
  static obs::Counter& counter = obs::Registry::Global().GetCounter(
      "ucr_reach_traversal_fallbacks_total",
      "Reaches() queries answered by filtered traversal (no 2-hop hit)");
  return counter;
}

/// Thread-local scratch for the traversal fallback of `Reaches`:
/// epoch-stamped visited marks plus an explicit DFS stack, both grown
/// on demand and reused across queries (and across graphs — the epoch
/// bump makes stale stamps harmless).
struct ReachScratch {
  uint64_t epoch = 0;
  std::vector<uint64_t> visited;
  std::vector<NodeId> stack;

  static ReachScratch& ThreadLocal() {
    thread_local ReachScratch scratch;
    return scratch;
  }
};

}  // namespace

ReachQuery::ReachQuery(const Dag& dag, const ReachQueryOptions& options) {
  const size_t n = dag.node_count();

  // Private child-adjacency copy: `Reaches` must stay valid after the
  // source Dag mutates into its next generation.
  adj_offsets_.assign(n + 1, 0);
  adj_children_.clear();
  adj_children_.reserve(dag.edge_count());
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const NodeId> kids = dag.children(v);
    adj_children_.insert(adj_children_.end(), kids.begin(), kids.end());
    adj_offsets_[v + 1] = adj_children_.size();
  }

  const std::vector<NodeId> topo = dag.TopologicalOrder();
  topo_pos_.assign(n, 0);
  for (size_t i = 0; i < topo.size(); ++i) {
    topo_pos_[topo[i]] = static_cast<uint32_t>(i);
  }

  // DFS-forest intervals over child edges: containment proves a tree
  // path, so `ivl(a) ⊇ ivl(b)` is a sufficient (not necessary)
  // reachability witness the traversal fallback accepts for free.
  ivl_begin_.assign(n, 0);
  ivl_end_.assign(n, 0);
  {
    std::vector<uint8_t> seen(n, 0);
    // Frame = (node, next child index); explicit stack to stay safe on
    // million-node chains.
    std::vector<std::pair<NodeId, size_t>> stack;
    uint32_t clock = 0;
    for (const NodeId r : topo) {
      if (seen[r]) continue;
      if (!dag.is_root(r)) continue;
      seen[r] = 1;
      ivl_begin_[r] = clock++;
      stack.emplace_back(r, 0);
      while (!stack.empty()) {
        auto& [v, next] = stack.back();
        const std::span<const NodeId> kids = dag.children(v);
        bool descended = false;
        while (next < kids.size()) {
          const NodeId c = kids[next++];
          if (!seen[c]) {
            seen[c] = 1;
            ivl_begin_[c] = clock++;
            stack.emplace_back(c, 0);
            descended = true;
            break;
          }
        }
        if (!descended) {
          ivl_end_[v] = clock++;
          stack.pop_back();
        }
      }
    }
    // Isolated components unreachable from any root cannot exist in a
    // DAG (every component has a parentless node), but guard anyway:
    // unvisited nodes keep the empty interval [0, 0), which never
    // claims containment of a distinct node's interval.
  }

  BuildTwoHop(dag, options);
}

void ReachQuery::BuildTwoHop(const Dag& dag,
                             const ReachQueryOptions& options) {
  const size_t n = dag.node_count();
  // Exact 2-hop (pruned-landmark) labels, gated by size. Landmarks in
  // descending total-degree order: high-degree hubs cover the most
  // paths first, which is what makes pruning effective.
  if (n == 0 || n > options.two_hop_max_nodes) return;

  std::vector<NodeId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    const size_t da = dag.children(a).size() + dag.parents(a).size();
    const size_t db = dag.children(b).size() + dag.parents(b).size();
    return da != db ? da > db : a < b;
  });
  // Per-node label vectors during construction (ranks appended in
  // ascending order, so each stays sorted); flattened into pools below.
  std::vector<std::vector<uint32_t>> in_label(n);
  std::vector<std::vector<uint32_t>> out_label(n);
  const size_t hop_budget = n * options.max_mean_hop_entries;
  size_t hop_entries = 0;

  const auto covered = [&](NodeId a, NodeId b) {
    const std::vector<uint32_t>& out = out_label[a];
    const std::vector<uint32_t>& in = in_label[b];
    size_t i = 0;
    size_t j = 0;
    while (i < out.size() && j < in.size()) {
      if (out[i] == in[j]) return true;
      if (out[i] < in[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  };

  // Visit stamps (2k = forward sweep of landmark k, 2k+1 = backward)
  // so a pruned node is inspected once per sweep, not once per
  // incoming edge.
  std::vector<uint64_t> stamp(n, UINT64_MAX);
  std::vector<NodeId> queue;
  for (size_t k = 0; k < n && hop_entries <= hop_budget; ++k) {
    const NodeId lm = by_degree[k];
    // Forward sweep: lm reaches u  =>  rank k enters in_label[u].
    queue.clear();
    queue.push_back(lm);
    stamp[lm] = 2 * k;
    in_label[lm].push_back(static_cast<uint32_t>(k));
    ++hop_entries;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const NodeId c : dag.children(queue[head])) {
        if (stamp[c] == 2 * k) continue;
        stamp[c] = 2 * k;
        if (covered(lm, c)) continue;  // Higher-rank landmark already covers.
        in_label[c].push_back(static_cast<uint32_t>(k));
        ++hop_entries;
        queue.push_back(c);
      }
    }
    // Backward sweep: u reaches lm  =>  rank k enters out_label[u].
    queue.clear();
    queue.push_back(lm);
    stamp[lm] = 2 * k + 1;
    out_label[lm].push_back(static_cast<uint32_t>(k));
    ++hop_entries;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const NodeId p : dag.parents(queue[head])) {
        if (stamp[p] == 2 * k + 1) continue;
        stamp[p] = 2 * k + 1;
        if (covered(p, lm)) continue;
        out_label[p].push_back(static_cast<uint32_t>(k));
        ++hop_entries;
        queue.push_back(p);
      }
    }
  }
  if (hop_entries > hop_budget) return;  // Profiles stay usable.

  in_offsets_.assign(n + 1, 0);
  out_offsets_.assign(n + 1, 0);
  in_pool_.reserve(hop_entries / 2);
  out_pool_.reserve(hop_entries / 2);
  for (NodeId v = 0; v < n; ++v) {
    in_pool_.insert(in_pool_.end(), in_label[v].begin(), in_label[v].end());
    out_pool_.insert(out_pool_.end(), out_label[v].begin(),
                     out_label[v].end());
    in_offsets_[v + 1] = in_pool_.size();
    out_offsets_[v + 1] = out_pool_.size();
  }
  two_hop_ready_ = true;
}

bool ReachQuery::Reaches(NodeId a, NodeId b) const {
  assert(a < node_count() && b < node_count());
  if (a == b) return true;
  // Topological positions: ancestors strictly precede descendants.
  if (topo_pos_[a] >= topo_pos_[b]) return false;

  if (two_hop_ready_) {
    const uint32_t* out = out_pool_.data() + out_offsets_[a];
    const uint32_t* out_end = out_pool_.data() + out_offsets_[a + 1];
    const uint32_t* in = in_pool_.data() + in_offsets_[b];
    const uint32_t* in_end = in_pool_.data() + in_offsets_[b + 1];
    while (out != out_end && in != in_end) {
      if (*out == *in) return true;
      if (*out < *in) {
        ++out;
      } else {
        ++in;
      }
    }
    return false;
  }

  // Spanning-forest interval containment: sufficient, so accept free.
  const auto contains = [this](NodeId u, NodeId v) {
    return ivl_begin_[u] <= ivl_begin_[v] && ivl_end_[v] <= ivl_end_[u] &&
           ivl_begin_[u] < ivl_end_[u];
  };
  if (contains(a, b)) return true;

  if constexpr (obs::kEnabled) TraversalFallbacks().Inc();
  ReachScratch& scratch = ReachScratch::ThreadLocal();
  if (scratch.visited.size() < node_count()) {
    scratch.visited.resize(node_count(), 0);
  }
  const uint64_t epoch = ++scratch.epoch;
  scratch.stack.clear();
  scratch.stack.push_back(a);
  scratch.visited[a] = epoch;
  const uint32_t limit = topo_pos_[b];
  while (!scratch.stack.empty()) {
    const NodeId v = scratch.stack.back();
    scratch.stack.pop_back();
    const std::span<const NodeId> kids{
        adj_children_.data() + adj_offsets_[v],
        adj_offsets_[v + 1] - adj_offsets_[v]};
    for (const NodeId c : kids) {
      if (c == b) return true;
      // Prune: nodes at or past b's topological position cannot lead
      // to b; contained intervals prove reachability outright.
      if (topo_pos_[c] >= limit) continue;
      if (scratch.visited[c] == epoch) continue;
      scratch.visited[c] = epoch;
      if (contains(c, b)) return true;
      scratch.stack.push_back(c);
    }
  }
  return false;
}

}  // namespace ucr::graph
