#ifndef UCR_GRAPH_REACH_QUERY_H_
#define UCR_GRAPH_REACH_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dag.h"

namespace ucr::graph {

/// Build-time budgets for `ReachQuery`'s 2-hop labels.
struct ReachQueryOptions {
  /// 2-hop labels (the O(label∩) `Reaches` fast path) are built only
  /// for hierarchies up to this many nodes; larger graphs answer
  /// `Reaches` through the interval-filtered traversal fallback.
  size_t two_hop_max_nodes = size_t{1} << 16;

  /// Mean per-node budget for the 2-hop labels; on breach the 2-hop
  /// structure is discarded and the traversal fallback answers.
  size_t max_mean_hop_entries = 48;
};

/// \brief Exact boolean hierarchy reachability over one `Dag`
/// generation (DESIGN.md §12).
///
/// Built on demand and immutable afterwards; it owns a private copy of
/// the child adjacency, so it stays valid after the source graph
/// mutates. Two answer paths:
///
///  * a 2-hop (pruned-landmark) label set answering `Reaches(a, b)` as
///    one sorted-set intersection, gated by `two_hop_max_nodes` and
///    `max_mean_hop_entries`;
///  * above the gate, a DFS-interval + topological-position filtered
///    traversal (exact, counted by
///    `ucr_reach_traversal_fallbacks_total`).
///
/// No serving path needs boolean reachability — decisions compose from
/// `ReachabilityIndex` profile labels — so this is kept off the write
/// path entirely: nothing rebuilds it per edit.
class ReachQuery {
 public:
  explicit ReachQuery(const Dag& dag, const ReachQueryOptions& options = {});

  /// True iff a directed membership path `a -> ... -> b` exists (or
  /// `a == b`). Thread-safe; the fallback uses thread-local scratch.
  bool Reaches(NodeId a, NodeId b) const;

  size_t node_count() const { return topo_pos_.size(); }
  bool two_hop_ready() const { return two_hop_ready_; }
  /// 2-hop pool size (in + out); 0 when the labels were not built.
  size_t two_hop_entries() const { return in_pool_.size() + out_pool_.size(); }

 private:
  void BuildTwoHop(const Dag& dag, const ReachQueryOptions& options);

  // A private copy of the child adjacency, a topological position per
  // node (necessary-condition filter), DFS-forest intervals over child
  // edges (sufficient-condition fast accept), and optional exact 2-hop
  // labels (landmark ranks, sorted ascending per node).
  std::vector<size_t> adj_offsets_;
  std::vector<NodeId> adj_children_;
  std::vector<uint32_t> topo_pos_;
  std::vector<uint32_t> ivl_begin_;
  std::vector<uint32_t> ivl_end_;
  bool two_hop_ready_ = false;
  std::vector<size_t> in_offsets_;
  std::vector<size_t> out_offsets_;
  std::vector<uint32_t> in_pool_;
  std::vector<uint32_t> out_pool_;
};

}  // namespace ucr::graph

#endif  // UCR_GRAPH_REACH_QUERY_H_
