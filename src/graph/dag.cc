#include "graph/dag.h"

#include <algorithm>
#include <deque>

namespace ucr::graph {

namespace {

/// Visited marks for `DescendantsOf`, reused across calls (and graphs):
/// a mark is current iff it equals `epoch`, so a call costs its output,
/// not a node-count-sized allocation and clear.
struct DescendantScratch {
  uint32_t epoch = 0;
  std::vector<uint32_t> mark;

  static DescendantScratch& ThreadLocal() {
    thread_local DescendantScratch scratch;
    return scratch;
  }
};

}  // namespace

NodeId Dag::FindNode(std::string_view node_name) const {
  if (names_ == nullptr) return kInvalidNode;
  const auto it = names_->ids.find(node_name);
  return it == names_->ids.end() ? kInvalidNode : it->second;
}

std::vector<NodeId> Dag::Roots() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (is_root(v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> Dag::Sinks() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (is_sink(v)) out.push_back(v);
  }
  return out;
}

bool Dag::HasEdge(NodeId parent, NodeId child) const {
  auto kids = children(parent);
  return std::find(kids.begin(), kids.end(), child) != kids.end();
}

std::vector<NodeId> Dag::TopologicalOrder() const {
  // Kahn's algorithm with a FIFO queue: deterministic order given the
  // deterministic id assignment of DagBuilder.
  std::vector<size_t> indegree(node_count());
  for (NodeId v = 0; v < node_count(); ++v) {
    indegree[v] = parents(v).size();
  }
  std::deque<NodeId> ready;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::vector<NodeId> order;
  order.reserve(node_count());
  while (!ready.empty()) {
    NodeId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (NodeId c : children(v)) {
      if (--indegree[c] == 0) ready.push_back(c);
    }
  }
  return order;  // Complete by construction: Dag is acyclic.
}

std::vector<NodeId> Dag::DescendantsOf(NodeId start) const {
  DescendantScratch& scratch = DescendantScratch::ThreadLocal();
  if (scratch.mark.size() < node_count()) {
    scratch.mark.resize(node_count(), 0);
  }
  if (++scratch.epoch == 0) {  // Wrapped: stale marks could now match.
    std::fill(scratch.mark.begin(), scratch.mark.end(), 0);
    scratch.epoch = 1;
  }
  const uint32_t epoch = scratch.epoch;
  std::vector<NodeId> out;
  out.push_back(start);
  scratch.mark[start] = epoch;
  for (size_t i = 0; i < out.size(); ++i) {
    for (NodeId c : children(out[i])) {
      if (scratch.mark[c] != epoch) {
        scratch.mark[c] = epoch;
        out.push_back(c);
      }
    }
  }
  return out;
}

StatusOr<Dag> Dag::FromCsr(std::vector<std::string> names,
                           std::vector<size_t> child_offsets,
                           std::vector<NodeId> children,
                           std::vector<size_t> parent_offsets,
                           std::vector<NodeId> parents) {
  const size_t n = names.size();
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("CSR graph: ") + what);
  };
  if (child_offsets.size() != n + 1 || parent_offsets.size() != n + 1) {
    return corrupt("offset array size mismatch");
  }
  if (child_offsets.front() != 0 || parent_offsets.front() != 0 ||
      child_offsets.back() != children.size() ||
      parent_offsets.back() != parents.size() ||
      children.size() != parents.size()) {
    return corrupt("offset bounds do not match edge arrays");
  }
  for (size_t v = 0; v < n; ++v) {
    if (child_offsets[v] > child_offsets[v + 1] ||
        parent_offsets[v] > parent_offsets[v + 1]) {
      return corrupt("non-monotonic offsets");
    }
  }
  for (const NodeId id : children) {
    if (id >= n) return corrupt("child id out of range");
  }
  for (const NodeId id : parents) {
    if (id >= n) return corrupt("parent id out of range");
  }

  // The two adjacency directions must describe the same edge set with
  // no duplicates or self-loops; a file that breaks the mirror would
  // desynchronize every traversal that mixes directions (Kahn's
  // indegrees vs child expansion, ancestor vs descendant sweeps).
  std::vector<uint64_t> down;
  std::vector<uint64_t> up;
  down.reserve(children.size());
  up.reserve(parents.size());
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = child_offsets[v]; i < child_offsets[v + 1]; ++i) {
      if (children[i] == v) return corrupt("self-loop");
      down.push_back((static_cast<uint64_t>(v) << 32) | children[i]);
    }
    for (size_t i = parent_offsets[v]; i < parent_offsets[v + 1]; ++i) {
      up.push_back((static_cast<uint64_t>(parents[i]) << 32) | v);
    }
  }
  std::sort(down.begin(), down.end());
  std::sort(up.begin(), up.end());
  if (down != up) return corrupt("child/parent adjacency mismatch");
  if (std::adjacent_find(down.begin(), down.end()) != down.end()) {
    return corrupt("duplicate edge");
  }

  auto table = std::make_shared<NameTable>();
  table->ids.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (!table->ids.try_emplace(names[v], static_cast<NodeId>(v)).second) {
      return corrupt("duplicate node name");
    }
  }
  table->names = std::move(names);

  Dag dag;
  dag.edge_count_ = children.size();
  dag.names_ = std::move(table);
  dag.children_ = Adjacency::FromOffsets(child_offsets, children);
  dag.parents_ = Adjacency::FromOffsets(parent_offsets, parents);
  dag.node_generations_.assign(n, 0);

  // Acyclicity last, on the assembled graph: Kahn's completes iff the
  // edge set has no cycle.
  if (dag.TopologicalOrder().size() != n) {
    return Status::Corruption("CSR graph: contains a cycle");
  }
  return dag;
}

Dag::Adjacency Dag::Adjacency::FromOffsets(const std::vector<size_t>& offsets,
                                           const std::vector<NodeId>& pool) {
  Adjacency adj;
  std::vector<Range> ranges;
  ranges.reserve(offsets.size() - 1);
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    const auto len = static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
    Range& r = ranges.emplace_back(adj.Place(len));
    std::copy_n(pool.begin() + static_cast<ptrdiff_t>(offsets[v]), len,
                adj.chunks_[r.chunk].get() + r.begin);
    r.len = len;
  }
  adj.ranges_.Append(ranges);
  return adj;
}

void Dag::Adjacency::AddNode() { ranges_.push_back(Place(0)); }

Dag::Adjacency::Range Dag::Adjacency::Place(uint32_t cap) {
  if (chunks_.empty() || used_.back() + cap > kChunkSize) {
    chunks_.push_back(std::make_shared<NodeId[]>(std::max(cap, kChunkSize)));
    used_.push_back(0);
  }
  const auto c = static_cast<uint32_t>(chunks_.size() - 1);
  if (cap > 0) MutableChunk(c);
  const uint32_t begin = used_[c];
  used_[c] += cap;
  slots_ += cap;
  return Range{c, begin, 0, cap};
}

NodeId* Dag::Adjacency::MutableChunk(uint32_t c) {
  std::shared_ptr<NodeId[]>& chunk = chunks_[c];
  if (chunk.use_count() > 1) {
    auto copy = std::make_shared<NodeId[]>(std::max(used_[c], kChunkSize));
    std::copy_n(chunk.get(), used_[c], copy.get());
    chunk = std::move(copy);
  }
  return chunk.get();
}

void Dag::Adjacency::Append(NodeId v, NodeId id, size_t live) {
  Range r = ranges_[v];
  if (r.len == r.cap) {
    // Out of slack: move the list to the pool's end with room to grow
    // (doubling keeps a growing list's moves amortized O(1) per id).
    // Place may clone the chunk the list sits in, so read it after.
    Range moved = Place(std::max<uint32_t>(4, 2 * r.len));
    std::copy_n(chunks_[r.chunk].get() + r.begin, r.len,
                chunks_[moved.chunk].get() + moved.begin);
    moved.len = r.len;
    r = moved;
  }
  MutableChunk(r.chunk)[r.begin + r.len++] = id;
  ranges_.Mutable(v) = r;
  // Holes (abandoned ranges and slack) beyond half the pool: a repack
  // costs O(V + E) and needs Omega(E) pool growth to trigger again.
  if (slots_ - live > slots_ / 2) Repack(live);
}

void Dag::Adjacency::Remove(NodeId v, NodeId id) {
  Range& r = ranges_.Mutable(v);
  NodeId* const first = MutableChunk(r.chunk) + r.begin;
  NodeId* const last = first + r.len;
  NodeId* const it = std::find(first, last, id);
  std::copy(it + 1, last, it);
  --r.len;
}

void Dag::Adjacency::Repack(size_t live) {
  const std::vector<std::shared_ptr<NodeId[]>> old = std::move(chunks_);
  chunks_.clear();
  used_.clear();
  chunks_.reserve(live / kChunkSize + 1);
  slots_ = 0;
  for (NodeId v = 0; v < ranges_.size(); ++v) {
    const Range from = ranges_[v];
    Range to = Place(from.len);
    std::copy_n(old[from.chunk].get() + from.begin, from.len,
                chunks_[to.chunk].get() + to.begin);
    to.len = from.len;
    ranges_.Mutable(v) = to;
  }
}

void Dag::StampNodes(const std::vector<NodeId>& nodes) {
  ++generation_;
  for (NodeId v : nodes) node_generations_.Mutable(v) = generation_;
}

NodeId Dag::EnsureNode(std::string_view name) {
  if (const NodeId id = FindNode(name); id != kInvalidNode) return id;
  // Copy-on-write: a table still shared with another copy (a published
  // snapshot's) is cloned so that copy never sees the new name. A sole
  // owner appends in place; like every mutation this assumes readers
  // of released copies were quiesced first (the epoch writer retires
  // snapshots on its own thread).
  if (names_ == nullptr) {
    names_ = std::make_shared<NameTable>();
  } else if (names_.use_count() > 1) {
    names_ = std::make_shared<NameTable>(*names_);
  }
  const auto id = static_cast<NodeId>(node_count());
  names_->names.emplace_back(name);
  names_->ids.emplace(names_->names.back(), id);
  children_.AddNode();
  parents_.AddNode();
  // A fresh node's (empty) ancestor set is itself new derived state:
  // stamp it so generation-scoped consumers (EffectiveMatrix rows)
  // pick it up.
  ++generation_;
  node_generations_.push_back(generation_);
  return id;
}

Status Dag::InsertEdge(NodeId parent, NodeId child,
                       std::vector<NodeId>* affected) {
  if (parent >= node_count() || child >= node_count()) {
    return Status::OutOfRange("InsertEdge: unknown node id");
  }
  if (parent == child) {
    return Status::InvalidArgument("self-loop on node '" + name(parent) +
                                   "'");
  }
  if (HasEdge(parent, child)) {
    return Status::AlreadyExists("duplicate edge " + name(parent) + " -> " +
                                 name(child));
  }
  // The edge closes a cycle iff `parent` is already reachable from
  // `child`: check only the part of the graph below `child` instead of
  // replaying full-graph acyclicity.
  std::vector<NodeId> below = DescendantsOf(child);
  for (NodeId v : below) {
    if (v == parent) {
      return Status::InvalidArgument("edge " + name(parent) + " -> " +
                                     name(child) + " would create a cycle");
    }
  }

  // The new child goes at the end of `parent`'s list (the
  // insertion-order contract of DagBuilder).
  ++edge_count_;
  children_.Append(parent, child, edge_count_);
  parents_.Append(child, parent, edge_count_);
  StampNodes(below);  // `below` is child + descendants: the affected set.
  if (affected != nullptr) *affected = std::move(below);
  return Status::OK();
}

Status Dag::EraseEdge(NodeId parent, NodeId child,
                      std::vector<NodeId>* affected) {
  if (parent >= node_count() || child >= node_count() ||
      !HasEdge(parent, child)) {
    return Status::NotFound(
        "no edge " + (parent < node_count() ? name(parent) : "<unknown>") +
        " -> " + (child < node_count() ? name(child) : "<unknown>"));
  }
  children_.Remove(parent, child);
  parents_.Remove(child, parent);
  --edge_count_;
  // Affected set computed *after* the erase — identical membership to
  // before (reachability via the removed edge starts above `child`),
  // and the post-edit graph is what invalidation consumers care about.
  std::vector<NodeId> below = DescendantsOf(child);
  StampNodes(below);
  if (affected != nullptr) *affected = std::move(below);
  return Status::OK();
}

NodeId DagBuilder::AddNode(std::string_view name) {
  auto [it, inserted] = name_to_id_.try_emplace(
      std::string(name), static_cast<NodeId>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
    adj_children_.emplace_back();
    adj_parents_.emplace_back();
  }
  return it->second;
}

Status DagBuilder::AddEdge(std::string_view parent, std::string_view child) {
  const NodeId p = AddNode(parent);
  const NodeId c = AddNode(child);
  return AddEdgeById(p, c);
}

Status DagBuilder::AddEdgeById(NodeId parent, NodeId child) {
  if (parent >= names_.size() || child >= names_.size()) {
    return Status::OutOfRange("AddEdgeById: unknown node id");
  }
  if (parent == child) {
    return Status::InvalidArgument("self-loop on node '" + names_[parent] +
                                   "'");
  }
  auto& kids = adj_children_[parent];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) {
    return Status::AlreadyExists("duplicate edge " + names_[parent] + " -> " +
                                 names_[child]);
  }
  kids.push_back(child);
  adj_parents_[child].push_back(parent);
  ++edge_count_;
  return Status::OK();
}

StatusOr<Dag> DagBuilder::Build() && {
  // Cycle check via Kahn's algorithm on the adjacency lists.
  const size_t n = names_.size();
  std::vector<size_t> indegree(n);
  for (size_t v = 0; v < n; ++v) indegree[v] = adj_parents_[v].size();
  std::deque<NodeId> ready;
  for (size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(static_cast<NodeId>(v));
  }
  size_t visited = 0;
  while (!ready.empty()) {
    NodeId v = ready.front();
    ready.pop_front();
    ++visited;
    for (NodeId c : adj_children_[v]) {
      if (--indegree[c] == 0) ready.push_back(c);
    }
  }
  if (visited != n) {
    return Status::InvalidArgument(
        "graph contains a cycle; subject hierarchies must be acyclic");
  }

  const auto flatten = [n](const std::vector<std::vector<NodeId>>& lists) {
    std::vector<size_t> offsets(1, 0);
    offsets.reserve(n + 1);
    std::vector<NodeId> pool;
    for (const std::vector<NodeId>& list : lists) {
      pool.insert(pool.end(), list.begin(), list.end());
      offsets.push_back(pool.size());
    }
    return Dag::Adjacency::FromOffsets(offsets, pool);
  };

  Dag dag;
  dag.edge_count_ = edge_count_;
  dag.node_generations_.assign(n, 0);
  dag.names_ = std::make_shared<Dag::NameTable>(
      Dag::NameTable{std::move(names_), std::move(name_to_id_)});
  dag.children_ = flatten(adj_children_);
  dag.parents_ = flatten(adj_parents_);
  return dag;
}

}  // namespace ucr::graph
