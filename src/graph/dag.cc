#include "graph/dag.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace ucr::graph {

namespace {

/// Names a delta table may hold before `EnsureNode` folds it into a new
/// base: at least this many, and at least sqrt(base size), so a fold's
/// O(base) copy is spread over O(sqrt(base)) creations and each
/// creation's delta clone stays O(sqrt(base)) too.
constexpr size_t kMinNameDelta = 64;

size_t NameDeltaBound(size_t base) {
  return std::max(kMinNameDelta,
                  static_cast<size_t>(std::sqrt(static_cast<double>(base))));
}

/// Nodes or edges from which `Dag::FromCsr` runs its passes on a thread
/// pool: below it, a pool's start-up costs more than the passes save.
constexpr size_t kParallelCsrSize = size_t{1} << 15;

/// Kahn's algorithm with a FIFO queue over `n` nodes: `parents_of(v)`
/// and `children_of(v)` give the adjacency. The output vector is the
/// queue, so the order is exactly the `std::deque` FIFO's. Shorter
/// than `n` iff the graph has a cycle.
template <typename Parents, typename Children>
std::vector<NodeId> KahnOrder(size_t n, Parents parents_of,
                              Children children_of) {
  std::vector<uint32_t> indegree(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    indegree[v] = static_cast<uint32_t>(parents_of(v).size());
    if (indegree[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (const NodeId c : children_of(order[head])) {
      if (--indegree[c] == 0) order.push_back(c);
    }
  }
  return order;
}

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

uint32_t Dag::NameTable::Tag(std::string_view name) {
  const uint64_t h = StringHash{}(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

NodeId Dag::NameTable::Find(std::string_view name, uint32_t tag) const {
  if (slots_.empty()) return kInvalidNode;
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.pos == kInvalidNode) return kInvalidNode;
    if (slot.tag == tag && names_[slot.pos] == name) return slot.pos;
  }
}

void Dag::NameTable::Reserve(size_t n) {
  if (2 * n <= slots_.size()) return;
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::bit_ceil(std::max<size_t>(16, 2 * n)), Slot{});
  for (const Slot& slot : old) {
    if (slot.pos != kInvalidNode) Place(slot.tag, slot.pos);
  }
}

void Dag::NameTable::Place(uint32_t tag, NodeId pos) {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  while (slots_[i].pos != kInvalidNode) i = (i + 1) & mask;
  slots_[i] = Slot{tag, pos};
}

void Dag::NameTable::Append(std::string name, uint32_t tag) {
  Reserve(names_.size() + 1);
  Place(tag, static_cast<NodeId>(names_.size()));
  names_.push_back(std::move(name));
}

bool Dag::NameTable::Assign(std::vector<std::string> names) {
  names_ = std::move(names);
  slots_.clear();
  Reserve(names_.size());
  for (size_t pos = 0; pos < names_.size(); ++pos) {
    const uint32_t tag = Tag(names_[pos]);
    if (Find(names_[pos], tag) != kInvalidNode) return false;
    Place(tag, static_cast<NodeId>(pos));
  }
  return true;
}

Dag::NameTable::NameTable(const NameTable& base, const NameTable& delta) {
  const size_t total = base.size() + delta.size();
  names_.reserve(total);
  names_ = base.names_;
  names_.insert(names_.end(), delta.names_.begin(), delta.names_.end());
  if (2 * total <= base.slots_.size()) {
    slots_ = base.slots_;
  } else {
    Reserve(total);
    PlaceAll(base, 0);
  }
  PlaceAll(delta, static_cast<NodeId>(base.size()));
}

void Dag::NameTable::PlaceAll(const NameTable& other, NodeId first) {
  for (const Slot& slot : other.slots_) {
    if (slot.pos != kInvalidNode) Place(slot.tag, first + slot.pos);
  }
}

NodeId Dag::FindNode(std::string_view node_name) const {
  if (names_ == nullptr) return kInvalidNode;
  const uint32_t tag = NameTable::Tag(node_name);
  if (const NodeId id = names_->Find(node_name, tag); id != kInvalidNode) {
    return id;
  }
  if (new_names_ == nullptr) return kInvalidNode;
  const NodeId pos = new_names_->Find(node_name, tag);
  return pos == kInvalidNode ? kInvalidNode
                             : static_cast<NodeId>(names_->size() + pos);
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
  // Deterministic given the deterministic id assignment of DagBuilder.
  // Complete by construction: Dag is acyclic.
  return KahnOrder(
      node_count(), [this](NodeId v) { return parents(v); },
      [this](NodeId v) { return children(v); });
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

  // Four passes over the validated flat arrays: the mirror check, the
  // name index, the adjacency fills and the acyclicity check. Each
  // only reads the arrays and writes its own outputs, so on a large
  // graph they run at once; a malformed input can then fail several,
  // and the first failure in pass order is reported — the one a serial
  // run, which stops at it, reports.
  auto table = std::make_shared<NameTable>();
  Dag dag;
  const auto mirror = [&]() -> const char* {
    // The two adjacency directions must describe the same edge set with
    // no duplicates or self-loops; a file that breaks the mirror would
    // desynchronize every traversal that mixes directions (Kahn's
    // indegrees vs child expansion, ancestor vs descendant sweeps).
    for (size_t v = 0; v < n; ++v) {
      for (size_t i = child_offsets[v]; i < child_offsets[v + 1]; ++i) {
        if (children[i] == v) return "self-loop";
      }
    }
    // Transpose the child lists by counting: claimed[claimed_offsets[c],
    // claimed_offsets[c + 1]) lists, ascending, every node that names c
    // as a child. The edge multisets agree iff each such list equals the
    // sorted parent list of c; a duplicate edge is then an adjacent
    // repeat in one list.
    std::vector<size_t> claimed_offsets(n + 1, 0);
    for (const NodeId c : children) ++claimed_offsets[c + 1];
    for (size_t v = 0; v < n; ++v) {
      claimed_offsets[v + 1] += claimed_offsets[v];
    }
    std::vector<NodeId> claimed(children.size());
    {
      std::vector<size_t> cursor(claimed_offsets.begin(),
                                 claimed_offsets.end() - 1);
      for (size_t v = 0; v < n; ++v) {
        for (size_t i = child_offsets[v]; i < child_offsets[v + 1]; ++i) {
          claimed[cursor[children[i]]++] = static_cast<NodeId>(v);
        }
      }
    }
    bool duplicate = false;
    std::vector<NodeId> listed;
    for (size_t v = 0; v < n; ++v) {
      const auto first = claimed.begin() +
                         static_cast<ptrdiff_t>(claimed_offsets[v]);
      const auto last = claimed.begin() +
                        static_cast<ptrdiff_t>(claimed_offsets[v + 1]);
      listed.assign(
          parents.begin() + static_cast<ptrdiff_t>(parent_offsets[v]),
          parents.begin() + static_cast<ptrdiff_t>(parent_offsets[v + 1]));
      std::sort(listed.begin(), listed.end());
      if (!std::equal(first, last, listed.begin(), listed.end())) {
        return "child/parent adjacency mismatch";
      }
      duplicate = duplicate || std::adjacent_find(first, last) != last;
    }
    return duplicate ? "duplicate edge" : nullptr;
  };
  const auto index_names = [&]() -> const char* {
    return table->Assign(std::move(names)) ? nullptr : "duplicate node name";
  };
  const auto fill = [&]() -> const char* {
    dag.children_ = Adjacency::FromOffsets(child_offsets, children);
    dag.parents_ = Adjacency::FromOffsets(parent_offsets, parents);
    return nullptr;
  };
  const auto acyclic = [&]() -> const char* {
    // Kahn's completes iff the edge set has no cycle. On arrays that
    // fail the mirror check the in-degrees are wrong, but every id is
    // in range, so the pass still only reads inside them.
    const auto range = [](const std::vector<size_t>& offsets,
                          const std::vector<NodeId>& ids) {
      return [off = offsets.data(), at = ids.data()](NodeId v) {
        return std::span<const NodeId>(at + off[v], off[v + 1] - off[v]);
      };
    };
    return KahnOrder(n, range(parent_offsets, parents),
                     range(child_offsets, children))
                       .size() == n
               ? nullptr
               : "contains a cycle";
  };
  const std::function<const char*()> passes[] = {mirror, index_names, fill,
                                                 acyclic};
  const char* faults[std::size(passes)] = {};
  if (std::max(n, children.size()) >= kParallelCsrSize &&
      ThreadPool::DefaultThreadCount() > 1) {
    ThreadPool workers(
        std::min(std::size(passes), ThreadPool::DefaultThreadCount()) - 1);
    workers.ParallelFor(0, std::size(passes),
                        [&](size_t i) { faults[i] = passes[i](); });
  } else {
    for (size_t i = 0; i < std::size(passes); ++i) {
      if ((faults[i] = passes[i]()) != nullptr) break;
    }
  }
  for (const char* fault : faults) {
    if (fault != nullptr) return corrupt(fault);
  }
  dag.edge_count_ = children.size();
  dag.names_ = std::move(table);
  dag.node_generations_.assign(n, 0);
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
  // Copy-on-write: a delta still shared with another copy (a published
  // snapshot's) is cloned so that copy never sees the new name; the
  // base is never written while shared. A sole owner appends in place;
  // like every mutation this assumes readers of released copies were
  // quiesced first (the epoch writer retires snapshots on its own
  // thread).
  if (names_ == nullptr) names_ = std::make_shared<NameTable>();
  if (new_names_ == nullptr) {
    new_names_ = std::make_shared<NameTable>();
  } else if (new_names_.use_count() > 1) {
    new_names_ = std::make_shared<NameTable>(*new_names_);
  }
  const auto id = static_cast<NodeId>(node_count());
  new_names_->Append(std::string(name), NameTable::Tag(name));
  if (new_names_->size() > NameDeltaBound(names_->size())) {
    // Fold into a new base; copies still holding the old one keep it.
    names_ = std::make_shared<NameTable>(*names_, *new_names_);
    new_names_.reset();
  }
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
  const uint32_t tag = Dag::NameTable::Tag(name);
  if (const NodeId id = names_.Find(name, tag); id != kInvalidNode) {
    return id;
  }
  names_.Append(std::string(name), tag);
  adj_children_.emplace_back();
  adj_parents_.emplace_back();
  return static_cast<NodeId>(names_.size() - 1);
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
  const size_t n = names_.size();
  const auto lists_of = [](const std::vector<std::vector<NodeId>>& lists) {
    return [all = &lists](NodeId v) {
      return std::span<const NodeId>((*all)[v]);
    };
  };
  if (KahnOrder(n, lists_of(adj_parents_), lists_of(adj_children_))
          .size() != n) {
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
  dag.names_ = std::make_shared<Dag::NameTable>(std::move(names_));
  dag.children_ = flatten(adj_children_);
  dag.parents_ = flatten(adj_parents_);
  return dag;
}

}  // namespace ucr::graph
