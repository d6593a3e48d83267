#ifndef UCR_GRAPH_DAG_H_
#define UCR_GRAPH_DAG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/paged_array.h"
#include "util/status.h"

namespace ucr::graph {

/// Dense identifier of a subject node within one `Dag`.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// \brief Directed acyclic graph of subjects.
///
/// Nodes represent subjects (individuals and groups); a directed edge
/// `u -> v` means "v is a member of group u" (paper §2.1): labels
/// propagate downward along edges. Individuals are sinks; top-level
/// groups are roots. The structure is guaranteed acyclic — `DagBuilder`
/// constructs one wholesale and rejects cycles, and the in-place
/// mutators (`InsertEdge`, `EraseEdge`, `EnsureNode`) preserve the
/// invariant edit by edit (`InsertEdge` runs a reachability cycle
/// check and fails without modifying anything).
///
/// `Dag` is a value type: cheap to move, copyable, safe to share
/// across threads for reads. Mutation is not synchronized — callers
/// must quiesce readers around an edit (the write path of
/// `AccessControlSystem` does).
///
/// Copies share everything an edit does not write (DESIGN.md §11):
/// the names are a read-only *base* table, shared by every copy, plus a
/// small *delta* of the names created since, cloned only when
/// `EnsureNode` appends to it while another copy still holds it and
/// folded into a new base once it outgrows ~sqrt(base); the per-node
/// arrays are `PagedArray`s and the
/// adjacency pools lists of shared chunks, cloned a page or chunk at a
/// time on first write. A published snapshot's copy therefore costs
/// O(directories + chunks) references, and the next edit O(touched
/// pages). Whether a block is shared is read from its reference count,
/// so copies that share blocks must be made and destroyed on the
/// thread that mutates (readers of a shared copy only read).
/// Adjacency is a *slack* CSR: per-node `(chunk, begin, len, cap)`
/// ranges over one chunked id pool per direction, so an edge edit
/// costs O(degree).
///
/// Every successful structural mutation bumps `generation()` and
/// stamps the nodes whose *ancestor sets* the edit can have changed —
/// the edited child and all of its descendants in the membership
/// direction — with the new generation. Derived-state caches use the
/// stamps for reachability-scoped invalidation instead of wholesale
/// clears (DESIGN.md §10).
class Dag {
 public:
  /// Constructs an empty graph (0 nodes). Useful as a placeholder.
  Dag() = default;

  Dag(const Dag&) = default;
  Dag& operator=(const Dag&) = default;
  Dag(Dag&&) = default;
  Dag& operator=(Dag&&) = default;

  /// Number of nodes.
  size_t node_count() const { return node_generations_.size(); }

  /// Number of edges.
  size_t edge_count() const { return edge_count_; }

  /// Id slots held by the two adjacency pools, holes and slack
  /// included (memory accounting; only a repack ever lowers it).
  size_t adjacency_slots() const {
    return children_.slots() + parents_.slots();
  }

  /// Name of node `id`. Requires `id < node_count()`.
  const std::string& name(NodeId id) const {
    const size_t base = names_->size();
    return id < base ? (*names_)[id] : (*new_names_)[id - base];
  }

  /// Id for `name`, or `kInvalidNode` if absent.
  NodeId FindNode(std::string_view node_name) const;

  /// Children of `id` (members of group `id`), in insertion order.
  std::span<const NodeId> children(NodeId id) const {
    return children_.list(id);
  }

  /// Parents of `id` (groups `id` belongs to), in insertion order.
  std::span<const NodeId> parents(NodeId id) const {
    return parents_.list(id);
  }

  bool is_root(NodeId id) const { return parents(id).empty(); }
  bool is_sink(NodeId id) const { return children(id).empty(); }

  /// All root node ids, ascending.
  std::vector<NodeId> Roots() const;

  /// All sink node ids, ascending.
  std::vector<NodeId> Sinks() const;

  /// True iff edge `parent -> child` exists. O(out-degree(parent)).
  bool HasEdge(NodeId parent, NodeId child) const;

  /// A topological order (parents before children). Stable across runs.
  std::vector<NodeId> TopologicalOrder() const;

  // -- In-place mutation (reachability-scoped; DESIGN.md §10) --------

  /// Monotonic counter bumped by every successful structural mutation
  /// (edge insert/remove, node creation). 0 for a freshly built graph.
  uint64_t generation() const { return generation_; }

  /// Generation of the last mutation that can have changed node `id`'s
  /// ancestor set (0 = untouched since construction). Consumers of
  /// derived per-subject state compare this against the generation
  /// they captured at derivation time.
  uint64_t node_generation(NodeId id) const { return node_generations_[id]; }

  /// Returns the id of `name`, appending a new isolated node (a root
  /// and sink, stamped with a fresh generation) if absent. Copies of
  /// this graph taken earlier never see the new name: a delta table
  /// still shared with one is cloned before the append, and a fold
  /// builds a new base, leaving the old one to its holders. O(sqrt(n))
  /// amortized.
  NodeId EnsureNode(std::string_view name);

  /// \brief Adds edge `parent -> child` in place. Fails on self-loops,
  /// duplicates, unknown ids, and — after an O(reachable) reachability
  /// check — on edges that would close a cycle; on failure the graph
  /// is unchanged. The adjacency update is O(degree) amortized: a list
  /// that outgrows its slack moves to the end of its pool, and the
  /// pool repacks once holes exceed half of it.
  ///
  /// On success stamps `child` and every descendant of `child` with
  /// the new generation; when `affected` is non-null it receives those
  /// node ids (the subjects whose ancestor sub-graphs may now differ).
  Status InsertEdge(NodeId parent, NodeId child,
                    std::vector<NodeId>* affected = nullptr);

  /// Removes edge `parent -> child` in place; NotFound if absent.
  /// Removal cannot create a cycle, so it always succeeds on an
  /// existing edge. Stamps and reports affected nodes like
  /// `InsertEdge`.
  Status EraseEdge(NodeId parent, NodeId child,
                   std::vector<NodeId>* affected = nullptr);

  /// `start` plus every node reachable from it along child edges, in
  /// BFS discovery order — exactly the subjects whose ancestor sets an
  /// edit of an edge into `start` can change. O(output): visited marks
  /// live in epoch-stamped thread-local scratch.
  std::vector<NodeId> DescendantsOf(NodeId start) const;

  /// \brief Reassembles a graph from serialized CSR parts (the binary
  /// snapshot format, graph/io.h).
  ///
  /// Unlike `DagBuilder` this adopts the adjacency arrays wholesale —
  /// O(V + E) with no per-edge hash lookups — which is what makes a
  /// million-node cold start feasible. Because the parts may come from
  /// a corrupted or adversarial file, everything is re-validated:
  /// offset monotonicity, id ranges, child/parent mirror consistency
  /// (same edge multiset, no duplicates, no self-loops), unique node
  /// names, and acyclicity. Any violation is a clean `kCorruption`;
  /// a returned graph upholds every `Dag` invariant. Generations are
  /// zeroed, exactly like a `DagBuilder`-built graph. Validation is
  /// O(V + E) flat passes: the child lists are transposed by counting
  /// and compared with sorted copies of the parent lists.
  static StatusOr<Dag> FromCsr(std::vector<std::string> names,
                               std::vector<size_t> child_offsets,
                               std::vector<NodeId> children,
                               std::vector<size_t> parent_offsets,
                               std::vector<NodeId> parents);

 private:
  friend class DagBuilder;

  /// Names in position order plus a flat open-addressed index over
  /// them: a slot holds a 32-bit hash tag and a position, so a lookup
  /// is one probe run plus (on a tag match) one name compare, and the
  /// index regrows from the stored tags without rehashing a name.
  class NameTable {
   public:
    NameTable() = default;
    /// `base`'s names followed by `delta`'s, indexed from both tables'
    /// stored tags: no name is rehashed and each slot is written once.
    NameTable(const NameTable& base, const NameTable& delta);

    /// The tag `Find`/`Append` expect for `name`.
    static uint32_t Tag(std::string_view name);

    size_t size() const { return names_.size(); }
    const std::string& operator[](size_t pos) const { return names_[pos]; }

    /// Position of `name` (whose tag is `tag`), or `kInvalidNode`.
    NodeId Find(std::string_view name, uint32_t tag) const;
    /// Appends `name`, which must be absent.
    void Append(std::string name, uint32_t tag);
    /// Adopts `names` as positions [0, n) of an empty table; false if
    /// a name repeats.
    bool Assign(std::vector<std::string> names);

   private:
    struct Slot {
      uint32_t tag = 0;
      NodeId pos = kInvalidNode;  ///< kInvalidNode: empty.
    };
    /// Makes room for `n` names at most half load.
    void Reserve(size_t n);
    void Place(uint32_t tag, NodeId pos);
    /// Places `other`'s slots with positions offset by `first`.
    void PlaceAll(const NameTable& other, NodeId first);

    std::vector<std::string> names_;
    std::vector<Slot> slots_;  ///< Empty or a power of two.
  };

  /// One adjacency direction as a slack CSR over a chunked pool: node
  /// `v`'s list is `chunk[begin, begin + len)`, with room up to `begin
  /// + cap`. A list never straddles a chunk, so it stays one span;
  /// chunks are shared between copies and cloned on first write. Lists
  /// keep insertion order (the `DagBuilder` contract `graph/io.cc`
  /// encodes through).
  class Adjacency {
   public:
    /// Packed (cap == len) lists, from CSR offsets over `pool`.
    static Adjacency FromOffsets(const std::vector<size_t>& offsets,
                                 const std::vector<NodeId>& pool);

    std::span<const NodeId> list(NodeId v) const {
      const Range& r = ranges_[v];
      return {chunks_[r.chunk].get() + r.begin, r.len};
    }
    size_t slots() const { return slots_; }
    /// Appends an empty list for a new node.
    void AddNode();
    /// Appends `id` to `v`'s list; `live` is the edge count after the
    /// append (the repack trigger compares holes against it).
    void Append(NodeId v, NodeId id, size_t live);
    /// Removes `id` from `v`'s list, keeping the others in order.
    void Remove(NodeId v, NodeId id);

   private:
    /// Ids per chunk. A list that outgrows its slack moves to the tail
    /// chunk; one longer than this gets a chunk of its own.
    static constexpr uint32_t kChunkSize = 4096;

    struct Range {
      uint32_t chunk = 0;
      uint32_t begin = 0;
      uint32_t len = 0;
      uint32_t cap = 0;
    };
    /// Reserves `cap` slots at the pool's end: in the tail chunk if it
    /// has room, else in a fresh chunk. Returns the empty range.
    Range Place(uint32_t cap);
    /// Chunk `c`'s ids, cloned first if another copy shares it.
    NodeId* MutableChunk(uint32_t c);
    /// Rewrites the pool with every list packed (cap == len).
    void Repack(size_t live);

    PagedArray<Range> ranges_;
    /// Chunk `c` holds max(used_[c], kChunkSize) ids, the first
    /// used_[c] of them placed (lists, their slack, and holes).
    std::vector<std::shared_ptr<NodeId[]>> chunks_;
    std::vector<uint32_t> used_;
    size_t slots_ = 0;  ///< Sum of `used_`.
  };

  /// Stamps `nodes` with a freshly bumped generation.
  void StampNodes(const std::vector<NodeId>& nodes);

  size_t edge_count_ = 0;
  /// Names ids [0, base size): built by `FromCsr` or `DagBuilder`, or
  /// by a fold, and shared read-only by every copy. Null until the
  /// first node exists (or after a move).
  std::shared_ptr<NameTable> names_;
  /// Names created since the base (ids from base size on); null when
  /// none. Cloned by `EnsureNode` while another copy shares it.
  std::shared_ptr<NameTable> new_names_;
  Adjacency children_;
  Adjacency parents_;
  uint64_t generation_ = 0;
  PagedArray<uint64_t> node_generations_;
};

/// \brief Incremental, validating constructor of `Dag`.
///
/// Usage:
///
///     DagBuilder b;
///     b.AddEdge("S1", "S3");   // nodes auto-created on first mention
///     auto dag = b.Build();    // StatusOr — fails on a cycle
///
/// Node ids are assigned in first-mention order, so a fixed sequence of
/// calls yields identical ids on every platform (experiments depend on
/// this determinism).
class DagBuilder {
 public:
  DagBuilder() = default;

  // One builder produces one graph; copying half-built state is a
  // likely bug, so the type is move-only.
  DagBuilder(const DagBuilder&) = delete;
  DagBuilder& operator=(const DagBuilder&) = delete;
  DagBuilder(DagBuilder&&) = default;
  DagBuilder& operator=(DagBuilder&&) = default;

  /// Adds a node (no-op if present). Returns its id.
  NodeId AddNode(std::string_view name);

  /// Adds edge `parent -> child`, creating missing nodes.
  /// Fails on self-loops and duplicate edges.
  Status AddEdge(std::string_view parent, std::string_view child);

  /// Id-based overload; both ids must already exist.
  Status AddEdgeById(NodeId parent, NodeId child);

  /// Number of nodes added so far.
  size_t node_count() const { return names_.size(); }

  /// Validates acyclicity and produces the immutable graph.
  /// The builder is left in a valid empty-ish state afterwards; reuse
  /// for a second graph is not supported.
  StatusOr<Dag> Build() &&;

 private:
  Dag::NameTable names_;
  std::vector<std::vector<NodeId>> adj_children_;
  std::vector<std::vector<NodeId>> adj_parents_;
  size_t edge_count_ = 0;
};

}  // namespace ucr::graph

#endif  // UCR_GRAPH_DAG_H_
