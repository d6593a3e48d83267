#include "graph/dag.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_snapshot.h"
#include "core/system.h"
#include "graph/generators.h"
#include "util/paged_array.h"
#include "util/random.h"

namespace ucr::graph {
namespace {

Dag BuildSmall() {
  DagBuilder b;
  EXPECT_TRUE(b.AddEdge("A", "B").ok());
  EXPECT_TRUE(b.AddEdge("A", "C").ok());
  EXPECT_TRUE(b.AddEdge("B", "D").ok());
  EXPECT_TRUE(b.AddEdge("C", "D").ok());
  auto dag = std::move(b).Build();
  EXPECT_TRUE(dag.ok());
  return std::move(dag).value();
}

/// What a copy of a `Dag` must keep while the original mutates: both
/// adjacency directions, every stamp, and the counters.
struct DagImage {
  std::vector<std::vector<NodeId>> children;
  std::vector<std::vector<NodeId>> parents;
  std::vector<uint64_t> stamps;
  uint64_t generation = 0;
  size_t edges = 0;
  bool operator==(const DagImage&) const = default;
};

DagImage ImageOf(const Dag& dag) {
  DagImage image;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    image.children.emplace_back(dag.children(v).begin(),
                                dag.children(v).end());
    image.parents.emplace_back(dag.parents(v).begin(), dag.parents(v).end());
    image.stamps.push_back(dag.node_generation(v));
  }
  image.generation = dag.generation();
  image.edges = dag.edge_count();
  return image;
}

/// Copies taken before edits, each with the image it must keep.
using FrozenCopies = std::vector<std::pair<Dag, DagImage>>;

void ExpectCopiesIntact(FrozenCopies& copies) {
  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_TRUE(ImageOf(copies[i].first) == copies[i].second)
        << "copy " << i << " changed after later edits of the original";
  }
  // Dropping them hands the pages back to the original alone, so the
  // next edits also run the in-place (unshared) path.
  copies.clear();
}

TEST(PagedArrayTest, CopiesShareUntilWritten) {
  constexpr size_t kPage = PagedArray<uint64_t>::kPageSize;
  constexpr size_t kDir = kPage * PagedArray<uint64_t>::kDirSize;
  PagedArray<uint64_t> a;
  a.assign(2 * kDir + 5, 7);
  const PagedArray<uint64_t> frozen = a;
  a.Mutable(kPage + 1) = 42;     // First directory, second page.
  a.Mutable(kDir + 3) = 43;      // Second directory.
  a.push_back(9);                // Tail page, shared until now.
  EXPECT_EQ(a[kPage + 1], 42u);
  EXPECT_EQ(a[kDir + 3], 43u);
  EXPECT_EQ(a[2 * kDir + 5], 9u);
  EXPECT_EQ(a.size(), 2 * kDir + 6);
  EXPECT_EQ(frozen.size(), 2 * kDir + 5);
  // Growing fills a partial shared page and then new pages.
  PagedArray<uint64_t> grown = frozen;
  grown.Grow(3 * kDir + kPage + 2, 3);
  EXPECT_EQ(grown[2 * kDir + 4], 7u);
  EXPECT_EQ(grown[2 * kDir + 5], 3u);
  EXPECT_EQ(grown[3 * kDir + kPage + 1], 3u);
  EXPECT_EQ(grown.size(), 3 * kDir + kPage + 2);
  for (size_t i = 0; i < frozen.size(); ++i) ASSERT_EQ(frozen[i], 7u);
}

TEST(DagBuilderTest, NodesGetSequentialIdsInFirstMentionOrder) {
  DagBuilder b;
  EXPECT_EQ(b.AddNode("x"), 0u);
  EXPECT_EQ(b.AddNode("y"), 1u);
  EXPECT_EQ(b.AddNode("x"), 0u);  // Idempotent.
  EXPECT_EQ(b.node_count(), 2u);
}

TEST(DagBuilderTest, RejectsSelfLoop) {
  DagBuilder b;
  const Status s = b.AddEdge("a", "a");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DagBuilderTest, RejectsDuplicateEdge) {
  DagBuilder b;
  EXPECT_TRUE(b.AddEdge("a", "b").ok());
  EXPECT_EQ(b.AddEdge("a", "b").code(), StatusCode::kAlreadyExists);
}

TEST(DagBuilderTest, RejectsUnknownIds) {
  DagBuilder b;
  b.AddNode("a");
  EXPECT_EQ(b.AddEdgeById(0, 5).code(), StatusCode::kOutOfRange);
}

TEST(DagBuilderTest, DetectsTwoNodeCycle) {
  DagBuilder b;
  EXPECT_TRUE(b.AddEdge("a", "b").ok());
  EXPECT_TRUE(b.AddEdge("b", "a").ok());  // Edge itself is fine...
  auto dag = std::move(b).Build();        // ...the cycle fails at Build.
  EXPECT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
}

TEST(DagBuilderTest, DetectsLongCycle) {
  DagBuilder b;
  EXPECT_TRUE(b.AddEdge("a", "b").ok());
  EXPECT_TRUE(b.AddEdge("b", "c").ok());
  EXPECT_TRUE(b.AddEdge("c", "d").ok());
  EXPECT_TRUE(b.AddEdge("d", "b").ok());
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(DagBuilderTest, EmptyGraphBuilds) {
  DagBuilder b;
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->node_count(), 0u);
  EXPECT_EQ(dag->edge_count(), 0u);
}

TEST(DagTest, AdjacencyAndDegrees) {
  const Dag dag = BuildSmall();
  EXPECT_EQ(dag.node_count(), 4u);
  EXPECT_EQ(dag.edge_count(), 4u);

  const NodeId a = dag.FindNode("A");
  const NodeId d = dag.FindNode("D");
  EXPECT_EQ(dag.children(a).size(), 2u);
  EXPECT_EQ(dag.parents(a).size(), 0u);
  EXPECT_EQ(dag.children(d).size(), 0u);
  EXPECT_EQ(dag.parents(d).size(), 2u);
  EXPECT_TRUE(dag.is_root(a));
  EXPECT_TRUE(dag.is_sink(d));
  EXPECT_FALSE(dag.is_sink(a));
}

TEST(DagTest, FindNodeMissReturnsInvalid) {
  const Dag dag = BuildSmall();
  EXPECT_EQ(dag.FindNode("nope"), kInvalidNode);
}

TEST(DagTest, HasEdge) {
  const Dag dag = BuildSmall();
  EXPECT_TRUE(dag.HasEdge(dag.FindNode("A"), dag.FindNode("B")));
  EXPECT_FALSE(dag.HasEdge(dag.FindNode("B"), dag.FindNode("A")));
  EXPECT_FALSE(dag.HasEdge(dag.FindNode("A"), dag.FindNode("D")));
}

TEST(DagTest, RootsAndSinks) {
  const Dag dag = BuildSmall();
  EXPECT_EQ(dag.Roots(), std::vector<NodeId>{dag.FindNode("A")});
  EXPECT_EQ(dag.Sinks(), std::vector<NodeId>{dag.FindNode("D")});
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  const Dag dag = BuildSmall();
  const std::vector<NodeId> order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), dag.node_count());
  std::vector<size_t> position(dag.node_count());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (NodeId c : dag.children(v)) {
      EXPECT_LT(position[v], position[c]);
    }
  }
}

TEST(DagTest, IsolatedNodeIsRootAndSink) {
  DagBuilder b;
  b.AddNode("lonely");
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->is_root(0));
  EXPECT_TRUE(dag->is_sink(0));
}

TEST(DagTest, CopySemantics) {
  const Dag dag = BuildSmall();
  const Dag copy = dag;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.node_count(), dag.node_count());
  EXPECT_EQ(copy.FindNode("B"), dag.FindNode("B"));
}

bool Contains(const std::vector<NodeId>& set, NodeId v) {
  return std::find(set.begin(), set.end(), v) != set.end();
}

TEST(DagMutationTest, EnsureNodeInternsOnceAndStampsNewNodes) {
  Dag dag = BuildSmall();
  EXPECT_EQ(dag.generation(), 0u);
  const NodeId e = dag.EnsureNode("E");
  EXPECT_EQ(e, 4u);
  EXPECT_EQ(dag.node_count(), 5u);
  EXPECT_GT(dag.node_generation(e), 0u);
  EXPECT_EQ(dag.EnsureNode("E"), e);   // Idempotent...
  EXPECT_EQ(dag.node_count(), 5u);     // ...and no duplicate node.
  EXPECT_EQ(dag.EnsureNode("A"), dag.FindNode("A"));
  EXPECT_TRUE(dag.is_root(e));
  EXPECT_TRUE(dag.is_sink(e));
}

TEST(DagMutationTest, InsertEdgeUpdatesBothAdjacencyDirections) {
  Dag dag = BuildSmall();
  const NodeId c = dag.FindNode("C");
  const NodeId e = dag.EnsureNode("E");
  std::vector<NodeId> affected;
  ASSERT_TRUE(dag.InsertEdge(c, e, &affected).ok());
  EXPECT_EQ(dag.edge_count(), 5u);
  EXPECT_TRUE(dag.HasEdge(c, e));
  ASSERT_EQ(dag.children(c).size(), 2u);
  ASSERT_EQ(dag.parents(e).size(), 1u);
  EXPECT_EQ(dag.parents(e)[0], c);
  // Affected set of an insert: the child and its descendants (E is a
  // sink, so just E).
  EXPECT_EQ(affected, std::vector<NodeId>{e});
}

TEST(DagMutationTest, InsertEdgeAffectedSetIsChildAndDescendants) {
  Dag dag = BuildSmall();
  const NodeId b = dag.FindNode("B");
  const NodeId d = dag.FindNode("D");
  const NodeId x = dag.EnsureNode("X");
  const uint64_t before = dag.generation();
  std::vector<NodeId> affected;
  ASSERT_TRUE(dag.InsertEdge(x, b, &affected).ok());
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_TRUE(Contains(affected, b));
  EXPECT_TRUE(Contains(affected, d));
  // Generation stamps move for exactly the affected set.
  EXPECT_GT(dag.node_generation(b), before);
  EXPECT_GT(dag.node_generation(d), before);
  EXPECT_LE(dag.node_generation(dag.FindNode("A")), before);
  EXPECT_LE(dag.node_generation(dag.FindNode("C")), before);
}

TEST(DagMutationTest, InsertEdgeRejectsCycleLeavingStateUntouched) {
  Dag dag = BuildSmall();
  const NodeId a = dag.FindNode("A");
  const NodeId d = dag.FindNode("D");
  const uint64_t generation = dag.generation();
  // D -> A closes the loop A -> B -> D -> A.
  const Status status = dag.InsertEdge(d, a);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_FALSE(dag.HasEdge(d, a));
  EXPECT_EQ(dag.generation(), generation);  // No stamp on failure.
}

TEST(DagMutationTest, InsertEdgeRejectsSelfLoopDuplicateAndBadIds) {
  Dag dag = BuildSmall();
  const NodeId a = dag.FindNode("A");
  const NodeId b = dag.FindNode("B");
  EXPECT_EQ(dag.InsertEdge(a, a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dag.InsertEdge(a, b).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dag.InsertEdge(a, 99).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dag.InsertEdge(99, a).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dag.edge_count(), 4u);
}

TEST(DagMutationTest, EraseEdgeRemovesAdjacencyAndStampsDescendants) {
  Dag dag = BuildSmall();
  const NodeId a = dag.FindNode("A");
  const NodeId b = dag.FindNode("B");
  const NodeId d = dag.FindNode("D");
  const uint64_t before = dag.generation();
  std::vector<NodeId> affected;
  ASSERT_TRUE(dag.EraseEdge(a, b, &affected).ok());
  EXPECT_EQ(dag.edge_count(), 3u);
  EXPECT_FALSE(dag.HasEdge(a, b));
  EXPECT_TRUE(dag.is_root(b));  // B lost its only parent.
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_TRUE(Contains(affected, b));
  EXPECT_TRUE(Contains(affected, d));
  EXPECT_GT(dag.node_generation(b), before);
  EXPECT_GT(dag.node_generation(d), before);

  EXPECT_EQ(dag.EraseEdge(a, b).code(), StatusCode::kNotFound);
}

TEST(DagMutationTest, MutatedDagMatchesFromScratchRebuild) {
  // Randomized churn against a model: surviving edges in the order
  // they were (last) inserted. A DagBuilder fed that sequence is the
  // from-scratch twin — both adjacency directions keep insertion
  // order, and erasures keep the survivors' relative order, so the
  // twin's lists (and its snapshot bytes) must match exactly even
  // after the slack CSR has moved lists around and repacked its pools.
  Dag dag = BuildSmall();
  // Copies share one name table until a node is created; the creating
  // side clones it, so neither copy observes the other's new names.
  const Dag before = dag;
  Dag other = before;
  ASSERT_EQ(other.EnsureNode("other"), 4u);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (const NodeId c : dag.children(v)) edges.emplace_back(v, c);
  }
  // BuildSmall's AddEdge order is parent-major already.
  Random rng(20261017);
  size_t repacks = 0;
  // A copy before every edge edit: the edit must clone whatever pages
  // and chunks it writes, leaving each copy bit-identical.
  FrozenCopies copies;
  for (int step = 0; step < 600; ++step) {
    if (step % 100 == 99) ExpectCopiesIntact(copies);
    const uint64_t choice = rng.Uniform(8);
    if (choice == 0 || dag.node_count() < 8) {
      dag.EnsureNode("n" + std::to_string(step));
      continue;
    }
    const auto p = static_cast<NodeId>(rng.Uniform(dag.node_count()));
    if (choice <= 4) {
      const auto c = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      const size_t slots = dag.adjacency_slots();
      copies.emplace_back(dag, ImageOf(dag));
      if (!dag.InsertEdge(p, c).ok()) continue;
      if (dag.adjacency_slots() < slots) ++repacks;
      edges.emplace_back(p, c);
    } else if (!dag.children(p).empty()) {
      const auto kids = dag.children(p);
      const NodeId c = kids[rng.Uniform(kids.size())];
      copies.emplace_back(dag, ImageOf(dag));
      ASSERT_TRUE(dag.EraseEdge(p, c).ok());
      edges.erase(std::find(edges.begin(), edges.end(), std::pair{p, c}));
    }
  }
  ExpectCopiesIntact(copies);
  EXPECT_GT(repacks, 0u);
  ASSERT_GT(dag.node_count(), 4u);
  EXPECT_EQ(dag.name(4), "n0");
  EXPECT_EQ(dag.FindNode("other"), kInvalidNode);
  EXPECT_EQ(other.FindNode("n0"), kInvalidNode);
  EXPECT_EQ(before.node_count(), 4u);
  EXPECT_EQ(before.edge_count(), 4u);
  for (NodeId v = 0; v < before.node_count(); ++v) {
    EXPECT_EQ(before.FindNode(before.name(v)), v);
    EXPECT_EQ(other.name(v), before.name(v));
  }
  EXPECT_EQ(before.FindNode("n0"), kInvalidNode);
  EXPECT_EQ(before.FindNode("other"), kInvalidNode);

  DagBuilder b;
  for (NodeId v = 0; v < dag.node_count(); ++v) b.AddNode(dag.name(v));
  for (const auto& [p, c] : edges) ASSERT_TRUE(b.AddEdgeById(p, c).ok());
  auto rebuilt = std::move(b).Build();
  ASSERT_TRUE(rebuilt.ok());  // Still acyclic.
  EXPECT_EQ(rebuilt->node_count(), dag.node_count());
  EXPECT_EQ(rebuilt->edge_count(), dag.edge_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    EXPECT_EQ(rebuilt->name(v), dag.name(v));
    EXPECT_EQ(dag.FindNode(dag.name(v)), v);
    const auto kids = dag.children(v);
    const auto twin_kids = rebuilt->children(v);
    EXPECT_TRUE(std::equal(kids.begin(), kids.end(), twin_kids.begin(),
                           twin_kids.end()));
    const auto parents = dag.parents(v);
    const auto twin_parents = rebuilt->parents(v);
    EXPECT_TRUE(std::equal(parents.begin(), parents.end(),
                           twin_parents.begin(), twin_parents.end()));
  }
  EXPECT_EQ(core::EncodeBinarySnapshot(core::AccessControlSystem(dag), 7),
            core::EncodeBinarySnapshot(
                core::AccessControlSystem(std::move(rebuilt).value()), 7));

  // The topological order of the mutated dag is still a valid order.
  const std::vector<NodeId> order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), dag.node_count());
  std::vector<size_t> position(dag.node_count());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (NodeId child : dag.children(v)) {
      EXPECT_LT(position[v], position[child]);
    }
  }
}

TEST(DagMutationTest, CopiesKeepAdjacencyAndStampsAcrossPagesAndChunks) {
  // Large enough for many pages per per-node array and several chunks
  // per adjacency pool, so edits land in pages and chunks that other
  // copies share — and lists outgrow their slack into the tail chunk.
  Random rng(7);
  ScaleLayeredDagOptions shape;
  shape.nodes = 3000;
  shape.layers = 5;
  shape.parents_per_node = 2;
  auto built = GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  Dag dag = std::move(built).value();
  FrozenCopies copies;
  size_t edits = 0;
  for (int step = 0; step < 400; ++step) {
    if (step % 50 == 49) ExpectCopiesIntact(copies);
    const auto p = static_cast<NodeId>(rng.Uniform(dag.node_count()));
    copies.emplace_back(dag, ImageOf(dag));
    if (rng.Bernoulli(0.6)) {
      const auto c = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      if (dag.InsertEdge(p, c).ok()) ++edits;
    } else if (!dag.children(p).empty()) {
      const auto kids = dag.children(p);
      ASSERT_TRUE(dag.EraseEdge(p, kids[rng.Uniform(kids.size())]).ok());
      ++edits;
    }
  }
  ExpectCopiesIntact(copies);
  EXPECT_GT(edits, 200u);
}

/// Serialized CSR parts, as `graph/io.cc` hands them to `FromCsr`.
struct Csr {
  std::vector<std::string> names;
  std::vector<size_t> child_offsets;
  std::vector<NodeId> children;
  std::vector<size_t> parent_offsets;
  std::vector<NodeId> parents;
};

/// Mirrored CSR of `edges` (parent, child) over `names`, lists in edge
/// order.
Csr CsrOf(std::vector<std::string> names,
          const std::vector<std::pair<NodeId, NodeId>>& edges) {
  const size_t n = names.size();
  std::vector<std::vector<NodeId>> kids(n);
  std::vector<std::vector<NodeId>> ups(n);
  for (const auto& [p, c] : edges) {
    kids[p].push_back(c);
    ups[c].push_back(p);
  }
  Csr csr;
  csr.names = std::move(names);
  csr.child_offsets.push_back(0);
  csr.parent_offsets.push_back(0);
  for (size_t v = 0; v < n; ++v) {
    csr.children.insert(csr.children.end(), kids[v].begin(), kids[v].end());
    csr.parents.insert(csr.parents.end(), ups[v].begin(), ups[v].end());
    csr.child_offsets.push_back(csr.children.size());
    csr.parent_offsets.push_back(csr.parents.size());
  }
  return csr;
}

StatusOr<Dag> FromCsr(Csr csr) {
  return Dag::FromCsr(std::move(csr.names), std::move(csr.child_offsets),
                      std::move(csr.children), std::move(csr.parent_offsets),
                      std::move(csr.parents));
}

/// BuildSmall's diamond: A -> {B, C} -> D.
Csr Diamond() {
  return CsrOf({"A", "B", "C", "D"}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(DagFromCsrTest, AcceptsAMirroredAcyclicGraph) {
  auto dag = FromCsr(Diamond());
  ASSERT_TRUE(dag.ok()) << dag.status().message();
  EXPECT_EQ(dag->node_count(), 4u);
  EXPECT_EQ(dag->edge_count(), 4u);
  EXPECT_EQ(dag->FindNode("D"), 3u);
  // Parent lists need not be sorted, only mirror the child lists.
  Csr shuffled = Diamond();
  std::swap(shuffled.parents[2], shuffled.parents[3]);  // D: {C, B}.
  EXPECT_TRUE(FromCsr(std::move(shuffled)).ok());
}

/// A malformed CSR and the message `FromCsr` rejects it with.
struct MalformedCsr {
  const char* what;
  Csr csr;
  const char* message;
};

// One malformed input per check, each with its own message; the inputs
// breaking two checks at once pin the order in which the checks report
// (self-loop, mirror, duplicate edge, duplicate name, cycle).
std::vector<MalformedCsr> MalformedCases() {
  using Case = MalformedCsr;
  std::vector<Case> cases;
  {
    Csr c = Diamond();
    c.child_offsets.pop_back();
    cases.push_back({"short offsets", std::move(c),
                     "offset array size mismatch"});
  }
  {
    Csr c = Diamond();
    c.children.pop_back();
    cases.push_back({"edge arrays of different sizes", std::move(c),
                     "offset bounds do not match edge arrays"});
  }
  {
    Csr c = Diamond();
    c.child_offsets = {0, 3, 1, 4, 4};  // Ends agree; A's range ends past B's.
    cases.push_back({"non-monotonic offsets", std::move(c),
                     "non-monotonic offsets"});
  }
  {
    Csr c = Diamond();
    c.children[1] = 4;
    cases.push_back({"child id out of range", std::move(c),
                     "child id out of range"});
  }
  {
    Csr c = Diamond();
    c.parents[0] = 99;
    cases.push_back({"parent id out of range", std::move(c),
                     "parent id out of range"});
  }
  cases.push_back({"self-loop",
                   CsrOf({"A", "B", "C", "D"},
                         {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 1}}),
                   "self-loop"});
  {
    // A self-loop listed only among the parents breaks the mirror.
    Csr c = CsrOf({"A", "B", "C", "D"}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
    c.parents[0] = 1;  // B's parent A -> B itself.
    cases.push_back({"self-loop in the parent lists only", std::move(c),
                     "child/parent adjacency mismatch"});
  }
  {
    Csr c = Diamond();
    c.parents[3] = 0;  // D's parents {B, C} -> {B, A}: same count.
    cases.push_back({"same count, different endpoint", std::move(c),
                     "child/parent adjacency mismatch"});
  }
  cases.push_back({"duplicate edge in both directions",
                   CsrOf({"A", "B", "C", "D"},
                         {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 1}}),
                   "duplicate edge"});
  {
    // The duplicate child edge is mirrored by a different parent edge.
    Csr c = CsrOf({"A", "B", "C", "D"},
                  {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 1}});
    c.parents = {0, 0, 0, 1, 2};  // B: {A}, C: {A, A}, D: {B, C}.
    c.parent_offsets = {0, 0, 1, 3, 5};
    cases.push_back({"duplicate edge mirrored as another edge", std::move(c),
                     "child/parent adjacency mismatch"});
  }
  cases.push_back({"duplicate name",
                   CsrOf({"A", "B", "A", "D"},
                         {{0, 1}, {0, 2}, {1, 3}, {2, 3}}),
                   "duplicate node name"});
  cases.push_back({"cycle",
                   CsrOf({"A", "B", "C", "D"},
                         {{0, 1}, {1, 2}, {2, 0}, {2, 3}}),
                   "contains a cycle"});
  // Precedence where two checks fail at once.
  cases.push_back({"self-loop before duplicate edge",
                   CsrOf({"A", "B"}, {{0, 1}, {0, 1}, {1, 1}}), "self-loop"});
  {
    Csr c = CsrOf({"A", "B", "C"}, {{0, 1}, {0, 1}, {1, 2}});
    c.parents.back() = 0;  // C's parent B -> A; A -> B is still doubled.
    cases.push_back({"mismatch before duplicate edge", std::move(c),
                     "child/parent adjacency mismatch"});
  }
  cases.push_back({"duplicate edge before duplicate name",
                   CsrOf({"A", "A"}, {{0, 1}, {0, 1}}), "duplicate edge"});
  cases.push_back({"duplicate name before cycle",
                   CsrOf({"A", "A"}, {{0, 1}, {1, 0}}),
                   "duplicate node name"});
  return cases;
}

void ExpectRejected(Csr csr, const char* message) {
  const auto dag = FromCsr(std::move(csr));
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(dag.status().message(), std::string("CSR graph: ") + message);
}

TEST(DagFromCsrTest, RejectsEachMalformedInputWithItsMessage) {
  for (MalformedCsr& c : MalformedCases()) {
    SCOPED_TRACE(c.what);
    ExpectRejected(std::move(c.csr), c.message);
  }
}

/// `small` appended to a valid 2^16-node binary tree named "t<i>": its
/// ids, offsets and array positions shift by the tree's, so a fault
/// written into `small` lands in the combined arrays unchanged. The
/// result is large enough for `FromCsr` to run its checks concurrently.
Csr BehindATree(Csr small) {
  constexpr NodeId kTree = NodeId{1} << 16;
  std::vector<std::string> names;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < kTree; ++v) {
    names.push_back("t" + std::to_string(v));
    if (v > 0) edges.emplace_back((v - 1) / 2, v);
  }
  Csr csr = CsrOf(std::move(names), edges);
  const auto shift = [](std::vector<size_t>& offsets,
                        const std::vector<size_t>& more, size_t by) {
    offsets.pop_back();
    for (const size_t o : more) offsets.push_back(o + by);
  };
  const size_t edge_count = csr.children.size();
  csr.names.insert(csr.names.end(), small.names.begin(), small.names.end());
  shift(csr.child_offsets, small.child_offsets, edge_count);
  shift(csr.parent_offsets, small.parent_offsets, edge_count);
  for (const NodeId c : small.children) csr.children.push_back(c + kTree);
  for (const NodeId p : small.parents) csr.parents.push_back(p + kTree);
  return csr;
}

// The same faults past the size at which the checks run concurrently:
// every input still fails with the message the serial path reports,
// including the inputs that fail two checks at once.
TEST(DagFromCsrTest, LargeInputsFailWithTheSerialPathsMessage) {
  auto dag = FromCsr(BehindATree(Diamond()));
  ASSERT_TRUE(dag.ok()) << dag.status().message();
  EXPECT_EQ(dag->node_count(), (size_t{1} << 16) + 4);
  EXPECT_EQ(dag->edge_count(), (size_t{1} << 16) - 1 + 4);
  const NodeId a = dag->FindNode("A");
  EXPECT_EQ(a, NodeId{1} << 16);
  EXPECT_EQ(dag->name(dag->children(a)[1]), "C");
  EXPECT_EQ(dag->parents(dag->FindNode("t9")).front(), dag->FindNode("t4"));
  EXPECT_EQ(dag->TopologicalOrder().size(), dag->node_count());

  for (MalformedCsr& c : MalformedCases()) {
    SCOPED_TRACE(c.what);
    ExpectRejected(BehindATree(std::move(c.csr)), c.message);
  }
}

/// Tens of thousands of names that stress a hash index: short and long
/// (past the small-string buffer), with embedded NUL bytes, and with
/// long shared prefixes.
std::vector<std::string> HardNames(size_t count) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    const std::string id = std::to_string(i);
    switch (i % 4) {
      case 0:
        names.push_back("s" + id);
        break;
      case 1:
        names.push_back("corp/engineering/platform/storage/member-" + id);
        break;
      case 2:
        names.push_back(std::string("nul\0", 4) + id + std::string("\0", 1));
        break;
      default:
        names.push_back("corp/engineering/platform/storage/member-" + id +
                        "/deputy");
        break;
    }
  }
  return names;
}

/// Near misses of `name`: a prefix, an extension, a NUL appended, and
/// one byte changed.
std::vector<std::string> Absent(const std::string& name) {
  std::string changed = name;
  changed.back() = static_cast<char>(changed.back() ^ 0x40);
  return {name.substr(0, name.size() - 1), name + "x", name + '\0', changed};
}

TEST(DagNameIndexTest, ResolvesManyHardNamesAndRejectsNearMisses) {
  const std::vector<std::string> names = HardNames(40000);
  DagBuilder builder;
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(builder.AddNode(names[i]), i);
  }
  // A repeated name returns its existing id and adds nothing.
  for (size_t i = 0; i < names.size(); i += 97) {
    EXPECT_EQ(builder.AddNode(names[i]), i);
  }
  EXPECT_EQ(builder.node_count(), names.size());
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok());
  auto loaded = FromCsr(CsrOf(names, {}));
  ASSERT_TRUE(loaded.ok());

  std::vector<std::string> extra;
  for (size_t i = 0; i < names.size(); i += 13) {
    for (std::string& miss : Absent(names[i])) extra.push_back(std::move(miss));
  }
  for (const Dag* dag : {&built.value(), &loaded.value()}) {
    ASSERT_EQ(dag->node_count(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_EQ(dag->name(static_cast<NodeId>(i)), names[i]);
      ASSERT_EQ(dag->FindNode(names[i]), i);
    }
    size_t found = 0;
    for (const std::string& miss : extra) {
      const NodeId id = dag->FindNode(miss);
      // A near miss of one name can be another name ("s1" + "x" is
      // not, but "s1" minus its last byte is "s").
      if (id != kInvalidNode) {
        EXPECT_EQ(dag->name(id), miss);
        ++found;
      }
    }
    EXPECT_LT(found, extra.size() / 10);
    EXPECT_EQ(dag->FindNode(""), kInvalidNode);
  }
}

TEST(DagNameIndexTest, CopiesKeepTheirNamesAcrossDeltaFolds) {
  // 10,000 base names: the delta folds into a new base past ~100
  // names, so 400 creations fold at least twice, each time with the
  // base shared by the copies.
  const std::vector<std::string> base_names = HardNames(10000);
  auto loaded = FromCsr(CsrOf(base_names, {}));
  ASSERT_TRUE(loaded.ok());
  Dag dag = std::move(loaded).value();
  const std::vector<std::string> added = HardNames(10400);
  std::vector<Dag> copies;
  for (size_t i = 10000; i < added.size(); ++i) {
    copies.push_back(dag);  // Holds the tables the creation must not touch.
    ASSERT_EQ(dag.EnsureNode(added[i]), i);
    ASSERT_EQ(dag.EnsureNode(added[i]), i);  // Idempotent.
  }
  copies.push_back(dag);
  for (size_t c = 0; c < copies.size(); ++c) {
    const Dag& copy = copies[c];
    const size_t own = 10000 + c;  // Names the copy was taken with.
    ASSERT_EQ(copy.node_count(), own);
    for (size_t i = 10000; i < added.size(); ++i) {
      ASSERT_EQ(copy.FindNode(added[i]),
                i < own ? static_cast<NodeId>(i) : kInvalidNode)
          << "copy " << c << " name " << i;
      if (i < own) {
        ASSERT_EQ(copy.name(static_cast<NodeId>(i)), added[i]);
      }
    }
    for (size_t i = c % 7; i < base_names.size(); i += 7) {
      ASSERT_EQ(copy.FindNode(base_names[i]), i);
    }
  }
  // Dropping the copies leaves the original whole.
  copies.clear();
  for (size_t i = 0; i < added.size(); ++i) {
    ASSERT_EQ(dag.FindNode(added[i]), i);
    ASSERT_EQ(dag.name(static_cast<NodeId>(i)), added[i]);
  }
  EXPECT_EQ(dag.EnsureNode("fresh"), added.size());
  EXPECT_EQ(dag.FindNode("fresh"), added.size());
}

TEST(DagMutationTest, DescendantsOfIncludesStartAndFollowsChildren) {
  const Dag dag = BuildSmall();
  const std::vector<NodeId> from_a = dag.DescendantsOf(dag.FindNode("A"));
  EXPECT_EQ(from_a.size(), 4u);  // Whole graph.
  const std::vector<NodeId> from_d = dag.DescendantsOf(dag.FindNode("D"));
  EXPECT_EQ(from_d, std::vector<NodeId>{dag.FindNode("D")});
}

}  // namespace
}  // namespace ucr::graph
