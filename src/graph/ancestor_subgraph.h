#ifndef UCR_GRAPH_ANCESTOR_SUBGRAPH_H_
#define UCR_GRAPH_ANCESTOR_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/dag.h"

namespace ucr::graph {

class SubgraphScratch;

/// Dense id local to one `AncestorSubgraph` (0 .. member_count-1).
using LocalId = uint32_t;

/// \brief The maximal sub-graph H of a `Dag` in which a chosen subject
/// `s` is the sole sink and all other nodes are its ancestors
/// (paper §3, Step 1; Fig. 3).
///
/// Members are the ancestors of `s` plus `s` itself; edges are exactly
/// the original edges between members. Because the parent of an
/// ancestor of `s` is itself an ancestor of `s`, every member except
/// `s` keeps at least one outgoing edge inside H, so `s` really is the
/// only sink. Member ids are re-densified into `LocalId` so per-query
/// scratch arrays are proportional to |H|, not |Dag|.
///
/// The extraction walks parent edges breadth-first from `s`; cost is
/// O(|H| + edges(H)). The object is immutable after construction.
class AncestorSubgraph {
 public:
  /// Extracts the ancestor sub-graph of `sink`.
  /// Requires `sink < dag.node_count()`.
  AncestorSubgraph(const Dag& dag, NodeId sink);

  /// Same extraction through an epoch-stamped scratch arena
  /// (`graph/scratch_subgraph.h`): the per-query dedup hash map is
  /// replaced by the arena's flat visited/local-id arrays, so repeated
  /// construction on a warm arena touches no per-node hash buckets.
  /// The resulting object is bit-identical to `AncestorSubgraph(dag,
  /// sink)` and fully owns its storage — it stays valid after the
  /// arena is reused. Invalidates live `ScratchSubgraphView`s of
  /// `scratch`.
  AncestorSubgraph(const Dag& dag, NodeId sink, SubgraphScratch& scratch);

  /// Number of member nodes (ancestors + the sink itself).
  size_t member_count() const { return members_.size(); }

  /// The underlying graph this sub-graph was extracted from.
  const Dag& dag() const { return *dag_; }

  /// Number of edges inside the sub-graph.
  size_t edge_count() const { return edge_count_; }

  /// Global node id of local member `v`.
  NodeId global_id(LocalId v) const { return members_[v]; }

  /// Local id of the sink `s`.
  LocalId sink() const { return sink_local_; }

  /// Local id for global node `id`, or `kInvalidNode` if not a member.
  LocalId ToLocal(NodeId id) const;

  /// Children of `v` inside the sub-graph.
  std::span<const LocalId> children(LocalId v) const {
    return {children_.data() + child_offsets_[v],
            child_offsets_[v + 1] - child_offsets_[v]};
  }

  /// Parents of `v` inside the sub-graph.
  std::span<const LocalId> parents(LocalId v) const {
    return {parents_.data() + parent_offsets_[v],
            parent_offsets_[v + 1] - parent_offsets_[v]};
  }

  /// Local ids of root members (no parents inside H). If the sink has
  /// no ancestors, the sink itself is the unique root.
  std::span<const LocalId> roots() const { return roots_; }

  /// Members in a topological order (parents before children).
  std::span<const LocalId> topological_order() const { return topo_; }

  /// Shortest directed distance (edge count) from `v` to the sink.
  /// The sink itself is at distance 0.
  uint32_t shortest_distance_to_sink(LocalId v) const {
    return shortest_dist_[v];
  }

  /// Longest directed distance from `v` to the sink.
  uint32_t longest_distance_to_sink(LocalId v) const {
    return longest_dist_[v];
  }

  /// Depth of the sub-graph: the longest root-to-sink path length.
  uint32_t depth() const { return depth_; }

  /// Number of distinct directed paths from `v` to the sink, saturated
  /// at UINT64_MAX (path counts explode on diamond stacks).
  uint64_t path_count(LocalId v) const { return path_count_[v]; }

  /// Sum of the lengths of all directed paths from `v` to the sink,
  /// saturated at UINT64_MAX. This is the per-source contribution to
  /// the paper's cost metric `d` (§3.3).
  uint64_t total_path_length(LocalId v) const { return total_path_len_[v]; }

  /// The paper's `d`: sum of all path lengths from every node in
  /// `sources` to the sink (saturating).
  uint64_t TotalPathLength(std::span<const LocalId> sources) const;

 private:
  /// Computes roots, distance/path DP, and depth from the already
  /// filled members/CSR/topo fields (shared by both constructors).
  void ComputeMetrics();

  std::vector<NodeId> members_;          // local -> global
  std::vector<LocalId> roots_;
  std::vector<LocalId> topo_;
  std::vector<size_t> child_offsets_{0};
  std::vector<LocalId> children_;
  std::vector<size_t> parent_offsets_{0};
  std::vector<LocalId> parents_;
  std::vector<uint32_t> shortest_dist_;
  std::vector<uint32_t> longest_dist_;
  std::vector<uint64_t> path_count_;
  std::vector<uint64_t> total_path_len_;
  std::unordered_map<NodeId, LocalId> local_index_;
  const Dag* dag_ = nullptr;
  LocalId sink_local_ = 0;
  size_t edge_count_ = 0;
  uint32_t depth_ = 0;
};

/// All members' distance profiles toward `sub`'s sink in one pass:
/// `result[v][L]` = number of length-L paths from local member `v` to
/// the sink (saturating). Shared by the explanation and mixed-hierarchy
/// engines.
std::vector<std::vector<uint64_t>> AllDistanceProfiles(
    const AncestorSubgraph& sub);

}  // namespace ucr::graph

#endif  // UCR_GRAPH_ANCESTOR_SUBGRAPH_H_
