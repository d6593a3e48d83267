// Fig. 7b diamond stacks at depths beyond the paper's sweep
// (satellite of DESIGN.md §12): the compressed reachability-index path
// must stay sub-second where the uncompressed paper-literal engine is
// budget-capped (its tuple count is 2^k), and its decisions must match
// the oracle engines on every size both can run.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "paper/literal.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;

struct DiamondFixture {
  graph::Dag dag;
  acm::ExplicitAcm eacm;
  acm::ObjectId object;
  acm::RightId right;
  graph::NodeId sink;
};

/// A k-diamond stack with an adversarial column: the root granted, a
/// mid-stack shoulder denied — decisions then genuinely depend on the
/// strategy's distance/specificity rules, not on a single label.
DiamondFixture MakeFixture(size_t k) {
  auto dag = graph::GenerateDiamondStack(k);
  EXPECT_TRUE(dag.ok());
  DiamondFixture f{std::move(dag).value(), {}, 0, 0, 0};
  f.object = f.eacm.InternObject("doc").value();
  f.right = f.eacm.InternRight("read").value();
  f.sink = f.dag.FindNode("Dsink");
  EXPECT_NE(f.sink, graph::kInvalidNode);
  EXPECT_TRUE(
      f.eacm.Set(f.dag.FindNode("D0t"), f.object, f.right, Mode::kPositive)
          .ok());
  const std::string mid = "D" + std::to_string(k / 2) + "a";
  EXPECT_TRUE(
      f.eacm.Set(f.dag.FindNode(mid), f.object, f.right, Mode::kNegative)
          .ok());
  return f;
}

TEST(DiamondDepthTest, IndexedMatchesAllOraclesWhereAllCanRun) {
  // 2^12 = 4096 literal tuples: every engine is comfortable, so the
  // indexed path is checked against both oracles, trace included.
  for (const size_t k : {4u, 12u}) {
    DiamondFixture f = MakeFixture(k);
    const auto index = graph::ReachabilityIndex::Build(f.dag, f.eacm.epoch(),
                                                       f.eacm.ReachRows());
    ASSERT_TRUE(index->ready());
    ResolveAccessOptions indexed_options;
    ResolveAccessOptions classic_options;
    classic_options.use_reachability_index = false;
    for (graph::NodeId v = 0; v < f.dag.node_count(); ++v) {
      for (const Strategy& strategy : AllStrategies()) {
        SCOPED_TRACE("k=" + std::to_string(k) + " " +
                     std::string(strategy.ToMnemonic()) + " subject " +
                     f.dag.name(v));
        ResolveTrace indexed_trace, classic_trace, literal_trace;
        const auto indexed = ResolveAccess(f.dag, f.eacm, v, f.object,
                                           f.right, strategy, indexed_options,
                                           &indexed_trace, nullptr,
                                           index.get());
        const auto classic =
            ResolveAccess(f.dag, f.eacm, v, f.object, f.right, strategy,
                          classic_options, &classic_trace);
        const auto literal =
            ResolveLiteral(f.dag, f.eacm, v, f.object, f.right, strategy,
                           PropagationMode::kBoth, UINT64_MAX, &literal_trace);
        ASSERT_TRUE(indexed.ok());
        ASSERT_TRUE(classic.ok());
        ASSERT_TRUE(literal.ok());
        ASSERT_EQ(*indexed, *classic);
        ASSERT_EQ(*indexed, *literal);
        ASSERT_EQ(indexed_trace.returned_line, classic_trace.returned_line);
        ASSERT_EQ(indexed_trace.result, classic_trace.result);
      }
    }
  }
}

TEST(DiamondDepthTest, LiteralEngineIsBudgetCappedWhereIndexAnswers) {
  // At k = 64 the literal engine would enqueue 2^64 sink tuples; under
  // any finite budget it must refuse rather than run — while the same
  // query through the index is a two-entry bag composition.
  constexpr size_t k = 64;
  DiamondFixture f = MakeFixture(k);
  const auto capped =
      ResolveLiteral(f.dag, f.eacm, f.sink, f.object, f.right, Strategy{},
                     PropagationMode::kBoth, uint64_t{1} << 20);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kFailedPrecondition);

  const auto index = graph::ReachabilityIndex::Build(f.dag, f.eacm.epoch(),
                                                     f.eacm.ReachRows());
  ASSERT_TRUE(index->ready());
  const auto indexed = ResolveAccess(f.dag, f.eacm, f.sink, f.object, f.right,
                                     Strategy{}, {}, nullptr, nullptr,
                                     index.get());
  ASSERT_TRUE(indexed.ok());
  // And it agrees with the (polynomial) aggregated oracle.
  ResolveAccessOptions classic_options;
  classic_options.use_reachability_index = false;
  const auto oracle = ResolveAccess(f.dag, f.eacm, f.sink, f.object, f.right,
                                    Strategy{}, classic_options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(*indexed, *oracle);
}

TEST(DiamondDepthTest, DepthsBeyondPaperSweepStaySubSecondCompressed) {
  // The repo's existing suites stop at k = 70; the paper's own sweep is
  // shallower still. Push two orders of magnitude past it: build +
  // 48-strategy resolve at the sink must finish inside one second on
  // the compressed path (the structure folds to one interior class, so
  // labels stay O(k) while the path count is 2^k), and every decision
  // must match the aggregated oracle, which is polynomial too.
  for (const size_t k : {512u, 2048u}) {
    DiamondFixture f = MakeFixture(k);
    const auto t0 = std::chrono::steady_clock::now();
    const auto index = graph::ReachabilityIndex::Build(f.dag, f.eacm.epoch(),
                                                       f.eacm.ReachRows());
    ASSERT_TRUE(index->ready());
    std::vector<Mode> indexed_modes;
    for (const Strategy& strategy : AllStrategies()) {
      const auto mode = ResolveAccess(f.dag, f.eacm, f.sink, f.object,
                                      f.right, strategy, {}, nullptr, nullptr,
                                      index.get());
      ASSERT_TRUE(mode.ok());
      indexed_modes.push_back(*mode);
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              1000)
        << "compressed path not sub-second at k=" << k;

    // The fold is total: one supernode, everything else interior, and
    // the sink's profile stays constant-size regardless of depth.
    const auto stats = index->stats();
    EXPECT_EQ(stats.supernodes, 2u);  // Granted root + denied shoulder.
    EXPECT_GE(stats.folded_nodes, 3 * k - 2);
    EXPECT_LE(index->label(f.sink).size(), 4u);

    ResolveAccessOptions classic_options;
    classic_options.use_reachability_index = false;
    size_t i = 0;
    for (const Strategy& strategy : AllStrategies()) {
      SCOPED_TRACE("k=" + std::to_string(k) + " " +
                   std::string(strategy.ToMnemonic()));
      const auto oracle = ResolveAccess(f.dag, f.eacm, f.sink, f.object,
                                        f.right, strategy, classic_options);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(indexed_modes[i++], *oracle);
    }
  }
}

}  // namespace
}  // namespace ucr::core
