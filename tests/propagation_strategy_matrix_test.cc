// The full semantic matrix locked down: all 48 strategies x all 3
// propagation modes, aggregated engine vs literal engine, end to end
// through ResolveAccess on randomized hierarchies. This is the
// broadest differential sweep in the suite (~2000 decision
// comparisons per trial).

#include <gtest/gtest.h>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "paper/literal.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;

class PropagationStrategyMatrixTest
    : public ::testing::TestWithParam<PropagationMode> {};

INSTANTIATE_TEST_SUITE_P(AllModes, PropagationStrategyMatrixTest,
                         ::testing::Values(PropagationMode::kBoth,
                                           PropagationMode::kFirstWins,
                                           PropagationMode::kSecondWins),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PropagationMode::kBoth:
                               return "Both";
                             case PropagationMode::kFirstWins:
                               return "FirstWins";
                             case PropagationMode::kSecondWins:
                               return "SecondWins";
                           }
                           return "Unknown";
                         });

TEST_P(PropagationStrategyMatrixTest, EnginesAgreeEndToEnd) {
  const PropagationMode mode = GetParam();
  Random rng(24680 + static_cast<uint64_t>(mode));
  for (int trial = 0; trial < 6; ++trial) {
    auto dag = graph::GenerateLayeredDag(
        {.layers = 3, .nodes_per_layer = 4, .skip_edge_probability = 0.25},
        rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("obj").value();
    const acm::RightId r = eacm.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(eacm.Set(v, o, r,
                             rng.Bernoulli(0.5) ? Mode::kPositive
                                                : Mode::kNegative)
                        .ok());
      }
    }

    ResolveAccessOptions aggregated;
    aggregated.propagation_mode = mode;

    for (graph::NodeId sink : dag->Sinks()) {
      for (const Strategy& s : AllStrategies()) {
        auto a = ResolveAccess(*dag, eacm, sink, o, r, s, aggregated);
        auto b = ResolveLiteral(*dag, eacm, sink, o, r, s, mode);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(*a, *b) << "trial " << trial << " sink "
                          << dag->name(sink) << " strategy "
                          << s.ToMnemonic();
      }
    }
  }
}

// Under kFirstWins only root authorizations matter: erasing every
// non-root explicit label must not change any decision.
TEST(PropagationSemanticsTest, FirstWinsIgnoresNonRootLabels) {
  Random rng(13579);
  for (int trial = 0; trial < 10; ++trial) {
    auto dag = graph::GenerateLayeredDag(
        {.layers = 3, .nodes_per_layer = 5, .skip_edge_probability = 0.2},
        rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm full;
    acm::ExplicitAcm roots_only;
    const acm::ObjectId fo = full.InternObject("obj").value();
    const acm::RightId fr = full.InternRight("read").value();
    const acm::ObjectId ro = roots_only.InternObject("obj").value();
    const acm::RightId rr = roots_only.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.3)) {
        const Mode mode =
            rng.Bernoulli(0.5) ? Mode::kPositive : Mode::kNegative;
        ASSERT_TRUE(full.Set(v, fo, fr, mode).ok());
        if (dag->is_root(v)) {
          ASSERT_TRUE(roots_only.Set(v, ro, rr, mode).ok());
        }
      }
    }
    ResolveAccessOptions first_wins;
    first_wins.propagation_mode = PropagationMode::kFirstWins;
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      // Skip subjects whose own non-root label differs between the two
      // matrices — their own label is at distance 0 and suppressed by
      // kFirstWins anyway, which is exactly what this test pins.
      for (size_t si = 0; si < AllStrategies().size(); si += 7) {
        const Strategy& s = AllStrategies()[si];
        auto with_all = ResolveAccess(*dag, full, v, fo, fr, s, first_wins);
        auto with_roots =
            ResolveAccess(*dag, roots_only, v, ro, rr, s, first_wins);
        ASSERT_TRUE(with_all.ok());
        ASSERT_TRUE(with_roots.ok());
        EXPECT_EQ(*with_all, *with_roots)
            << "trial " << trial << " node " << dag->name(v) << " "
            << s.ToMnemonic();
      }
    }
  }
}

}  // namespace
}  // namespace ucr::core
