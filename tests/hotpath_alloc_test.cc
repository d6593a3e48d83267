// Allocation-regression test for the hot path (DESIGN.md §7): once the
// per-thread arenas have grown to their steady-state footprint, a
// fast-path `ResolveAccess` query performs ZERO heap allocations —
// no hash maps, no label vectors, no per-node bags. This binary links
// `ucr_alloc_counter`, which replaces the global allocation functions
// with counting versions (see util/alloc_counter.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "acm/acm.h"
#include "core/batch_resolver.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "obs/audit_log.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/alloc_counter.h"
#include "util/random.h"

// Sanitizer builds interpose their own allocator machinery; the strict
// zero-allocation bound is asserted by the plain build only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UCR_ALLOC_TEST_SKIP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UCR_ALLOC_TEST_SKIP 1
#endif
#endif
#ifndef UCR_ALLOC_TEST_SKIP
#define UCR_ALLOC_TEST_SKIP 0
#endif

namespace ucr::core {
namespace {

TEST(HotPathAllocTest, CountingAllocatorIsLive) {
  const uint64_t before = AllocationCount();
  // A direct call (not a new-expression) cannot be elided by the
  // compiler's allocation-elision rules.
  void* probe = ::operator new(64);
  const uint64_t after = AllocationCount();
  ::operator delete(probe);
  EXPECT_GE(after - before, 1u)
      << "counting operator new is not linked in; the zero-allocation "
         "assertions below would be vacuous";
}

TEST(HotPathAllocTest, SteadyStateResolveAccessIsAllocationFree) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }

  Random rng(91);
  graph::LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 12;
  shape.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.2)) continue;
    const acm::Mode mode =
        rng.Bernoulli(0.4) ? acm::Mode::kNegative : acm::Mode::kPositive;
    ASSERT_TRUE(eacm.Set(v, object, right, mode).ok());
  }

  const std::vector<Strategy> strategies = AllStrategies();
  const auto resolve_all = [&] {
    for (const PropagationMode mode :
         {PropagationMode::kBoth, PropagationMode::kFirstWins,
          PropagationMode::kSecondWins}) {
      ResolveAccessOptions options;
      options.propagation_mode = mode;
      for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
        for (const Strategy& strategy : strategies) {
          const auto result =
              ResolveAccess(*dag, eacm, v, object, right, strategy, options);
          ASSERT_TRUE(result.ok());
        }
      }
    }
  };

  // Warm-up: arenas, label stamps, and bag pools grow to the largest
  // sub-graph in the workload. Buffers only ever grow, so one full
  // sweep reaches the steady state for every query that follows.
  resolve_all();

  const uint64_t before = AllocationCount();
  resolve_all();
  const uint64_t allocations = AllocationCount() - before;
  EXPECT_EQ(allocations, 0u)
      << "the fast path allocated on warm arenas — a regression in "
         "scratch extraction, flat propagation, or streaming resolve";
}

// A pass over a warm epoch snapshot (DESIGN.md §11) is all decision-
// table hits: zero allocations per query, both for direct snapshot
// reads and for the batch engine bound to that snapshot, whose only
// heap traffic is per batch (the result vector), not per query.
TEST(HotPathAllocTest, WarmSnapshotPassIsAllocationFreePerQuery) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }

  Random rng(93);
  graph::LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 12;
  shape.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.2)) continue;
    ASSERT_TRUE(eacm.Set(v, object, right,
                         rng.Bernoulli(0.4) ? acm::Mode::kNegative
                                            : acm::Mode::kPositive)
                    .ok());
  }
  const Strategy strategy = ParseStrategy("D+LP-").value();
  const auto snapshot =
      BuildSnapshot(*dag, eacm, strategy, PropagationMode::kBoth,
                    /*epoch=*/1, /*previous=*/nullptr,
                    /*resolution_capacity=*/1 << 10);
  std::vector<BatchResolver::Query> queries;
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    queries.push_back({v, object, right});
  }
  const auto read_all = [&] {
    for (const BatchResolver::Query& q : queries) {
      ASSERT_TRUE(SnapshotResolveAccess(*snapshot, q.subject, q.object,
                                        q.right, strategy)
                      .ok());
    }
  };
  read_all();  // Warm-up: fills the decision and sub-graph tables.

  uint64_t before = AllocationCount();
  read_all();
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "a decision-table hit allocated";

  // The batch engine: a pass of N and a pass of 4N warm queries must
  // allocate the same per-batch constant.
  BatchResolver resolver(*snapshot);
  std::vector<BatchResolver::Query> quadrupled;
  for (int i = 0; i < 4; ++i) {
    quadrupled.insert(quadrupled.end(), queries.begin(), queries.end());
  }
  ASSERT_TRUE(resolver.ResolveBatch(queries, strategy).ok());
  before = AllocationCount();
  ASSERT_TRUE(resolver.ResolveBatch(queries, strategy).ok());
  const uint64_t single = AllocationCount() - before;
  before = AllocationCount();
  ASSERT_TRUE(resolver.ResolveBatch(quadrupled, strategy).ok());
  EXPECT_EQ(AllocationCount() - before, single)
      << "warm batch queries allocated per query";
}

// A decision-table miss runs the scratch-arena hot path (DESIGN.md §7,
// §11): once this thread's arenas are warm from a pass over one
// snapshot, the first pass over a fresh snapshot of the same state —
// no reachability index, every query a miss — allocates nothing.
TEST(HotPathAllocTest, ColdSnapshotPassIsAllocationFreePerQuery) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }

  Random rng(97);
  graph::LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 12;
  shape.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.2)) continue;
    ASSERT_TRUE(eacm.Set(v, object, right,
                         rng.Bernoulli(0.4) ? acm::Mode::kNegative
                                            : acm::Mode::kPositive)
                    .ok());
  }
  const Strategy strategy = ParseStrategy("D+LP-").value();
  for (const PropagationMode mode :
       {PropagationMode::kBoth, PropagationMode::kFirstWins,
        PropagationMode::kSecondWins}) {
    const auto build = [&] {
      return BuildSnapshot(*dag, eacm, strategy, mode, /*epoch=*/1,
                           /*previous=*/nullptr,
                           /*resolution_capacity=*/1 << 10);
    };
    const auto warm = build();
    const auto cold = build();
    const auto read_all = [&](const HierarchySnapshot& snapshot) {
      for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
        ASSERT_TRUE(
            SnapshotResolveAccess(snapshot, v, object, right, strategy).ok());
      }
    };
    read_all(*warm);  // Warm-up: this thread's arenas and bag pools.

    ASSERT_EQ(cold->resolution.size(), 0u);
    const uint64_t before = AllocationCount();
    read_all(*cold);
    EXPECT_EQ(AllocationCount() - before, 0u)
        << "a snapshot miss allocated on warm arenas";
    EXPECT_EQ(cold->resolution.size(), dag->node_count())
        << "every query of the cold pass should have been a stored miss";
  }
}

// The observability acceptance bound (DESIGN.md §8): metrics recording
// and even 1-in-1 query tracing stay inside the zero-allocation
// budget. Counters/histograms are relaxed atomics on preallocated
// shards, trace records are fixed-size copies into a preallocated
// ring, and registry interning happens once during warm-up.
TEST(HotPathAllocTest, SteadyStateStaysAllocationFreeWithTracingEveryQuery) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }
  if (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (UCR_METRICS=OFF)";
  }

  Random rng(93);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 10;
  shape.skip_edge_probability = 0.15;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.25)) continue;
    const acm::Mode mode =
        rng.Bernoulli(0.4) ? acm::Mode::kNegative : acm::Mode::kPositive;
    ASSERT_TRUE(eacm.Set(v, object, right, mode).ok());
  }

  obs::QueryTracer& tracer = obs::QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);  // Worst case: every query is sampled.

  // A majority strategy, so the sampled records carry c1/c2 too.
  const Strategy strategy = ParseStrategy("D+LMP-").value();
  const auto sweep = [&] {
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*dag, eacm, v, object, right, strategy).ok());
    }
  };

  sweep();  // Warm-up: arenas AND metric handles reach steady state.
  const uint64_t before = AllocationCount();
  sweep();
  const uint64_t allocations = AllocationCount() - before;
  tracer.SetSampleInterval(previous_interval);
  EXPECT_EQ(allocations, 0u)
      << "instrumentation allocated on the hot path — a regression in "
         "the sharded metrics, the trace ring, or a renderer leaked "
         "into the recording path";
}

// The §9 extension of the same bound: with the audit log running
// (sampled decisions -> discard sink) AND shadow verification firing
// on every query, the *query thread's* budget stays at zero. Event
// emission is a trivially-copyable write into the preallocated ring;
// the writer thread's rendering and the shadow oracle's deliberate
// classic re-resolution run under ScopedAllocExclusion, off budget.
TEST(HotPathAllocTest, SteadyStateStaysAllocationFreeWithAuditAndShadow) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }
  if (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (UCR_METRICS=OFF)";
  }

  Random rng(94);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 10;
  shape.skip_edge_probability = 0.15;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.25)) continue;
    const acm::Mode mode =
        rng.Bernoulli(0.4) ? acm::Mode::kNegative : acm::Mode::kPositive;
    ASSERT_TRUE(eacm.Set(v, object, right, mode).ok());
  }

  obs::QueryTracer& tracer = obs::QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);
  obs::AuditLogOptions audit_options;
  audit_options.sinks.push_back(std::make_unique<obs::DiscardSink>());
  ASSERT_TRUE(obs::AuditLog::Global().Start(std::move(audit_options)));
  obs::ShadowVerifier::Global().SetInterval(1);  // Worst case.

  const Strategy strategy = ParseStrategy("D+LMP-").value();
  const auto sweep = [&] {
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*dag, eacm, v, object, right, strategy).ok());
    }
  };

  sweep();  // Warm-up: arenas, metric handles, oracle scratch.
  const uint64_t before = AllocationCount();
  sweep();
  const uint64_t allocations = AllocationCount() - before;
  obs::ShadowVerifier::Global().SetInterval(0);
  obs::AuditLog::Global().Stop();
  tracer.SetSampleInterval(previous_interval);
  EXPECT_EQ(allocations, 0u)
      << "audit emission or shadow verification allocated on the query "
         "thread's budget — an event field grew past the POD buffer, or "
         "an exclusion scope was dropped";
  EXPECT_EQ(obs::ShadowVerifier::Global().mismatch_total(), 0u)
      << "the shadow oracle disagreed with the fast path";
}

// The §13 extension: the full PR-8 telemetry stack — time-series
// sampler ticking in the background, exemplar capture enabled at
// threshold 0, tracing every query — keeps the query thread's budget
// at zero. The sampler thread scrapes under ScopedAllocExclusion, and
// exemplar capture is a CAS plus relaxed stores into preallocated
// per-bucket slots.
TEST(HotPathAllocTest, SteadyStateStaysAllocationFreeWithSamplerLive) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }
  if (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (UCR_METRICS=OFF)";
  }

  Random rng(95);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 10;
  shape.skip_edge_probability = 0.15;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.25)) continue;
    const acm::Mode mode =
        rng.Bernoulli(0.4) ? acm::Mode::kNegative : acm::Mode::kPositive;
    ASSERT_TRUE(eacm.Set(v, object, right, mode).ok());
  }

  obs::QueryTracer& tracer = obs::QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);   // Worst case: every query sampled...
  obs::SetExemplarThreshold(0);  // ...and every sample leaves an exemplar.
  obs::TimeSeriesSampler::Options ts_options;
  ts_options.interval_ms = 1;  // Scrape as often as the OS allows.
  ASSERT_TRUE(obs::TimeSeriesSampler::Global().Start(ts_options, nullptr));

  const Strategy strategy = ParseStrategy("D+LMP-").value();
  const auto sweep = [&] {
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*dag, eacm, v, object, right, strategy).ok());
    }
  };

  sweep();  // Warm-up: arenas, metric handles, exemplar slots.
  const uint64_t before = AllocationCount();
  // Keep querying until the sampler has demonstrably scraped mid-sweep
  // (bounded: CI schedulers can delay the first tick), so the zero
  // budget is measured while ticks really overlap the queries.
  for (int pass = 0;
       pass < 5000 && obs::TimeSeriesSampler::Global().ticks_total() < 2;
       ++pass) {
    sweep();
  }
  const uint64_t allocations = AllocationCount() - before;
  obs::TimeSeriesSampler::Global().Stop();
  tracer.SetSampleInterval(previous_interval);
  EXPECT_GE(obs::TimeSeriesSampler::Global().ticks_total(), 2u)
      << "the sampler never ticked; the overlap this test wants did "
         "not happen";
  EXPECT_EQ(allocations, 0u)
      << "the sampler or exemplar capture allocated on the query "
         "thread's budget — a scrape escaped ScopedAllocExclusion, or "
         "exemplar capture left its preallocated slots";
}

// The §14 extension: phase timers collecting on EVERY query (tracing
// 1-in-1) while the SIGPROF wall sampler interrupts the query thread
// at ~1 kHz. The phase accumulator is zero-initialized POD TLS, the
// flush observes into preallocated histogram shards, the signal
// handler writes a CAS-claimed static ring, and the ticker thread
// drains under ScopedAllocExclusion — so the query thread's budget
// stays at zero even mid-interrupt.
TEST(HotPathAllocTest, SteadyStateStaysAllocationFreeWithProfilerLive) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }
  if (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (UCR_METRICS=OFF)";
  }

  Random rng(96);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 10;
  shape.skip_edge_probability = 0.15;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    if (!rng.Bernoulli(0.25)) continue;
    const acm::Mode mode =
        rng.Bernoulli(0.4) ? acm::Mode::kNegative : acm::Mode::kPositive;
    ASSERT_TRUE(eacm.Set(v, object, right, mode).ok());
  }

  obs::QueryTracer& tracer = obs::QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);  // Every query runs a phase collection.
  obs::WallProfiler::Options profiler_options;
  profiler_options.hz = 997;  // ~1 kHz: far above the production 97 Hz.
  ASSERT_TRUE(obs::WallProfiler::Global().Start(profiler_options));

  const Strategy strategy = ParseStrategy("D+LMP-").value();
  const auto sweep = [&] {
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*dag, eacm, v, object, right, strategy).ok());
    }
  };

  sweep();  // Warm-up: arenas, metric handles, phase histograms.
  const uint64_t before = AllocationCount();
  // Keep querying until the sampler has demonstrably interrupted the
  // process mid-sweep (bounded: signal delivery can lag on loaded CI
  // hosts), so the zero budget is measured under real interrupts.
  for (int pass = 0;
       pass < 5000 &&
       obs::WallProfiler::Global().GetStats().samples_total < 8;
       ++pass) {
    sweep();
  }
  const uint64_t allocations = AllocationCount() - before;
  const auto stats = obs::WallProfiler::Global().GetStats();
  obs::WallProfiler::Global().Stop();
  tracer.SetSampleInterval(previous_interval);
  EXPECT_GE(stats.samples_total, 8u)
      << "the wall sampler never captured mid-sweep; the overlap this "
         "test wants did not happen";
  EXPECT_EQ(allocations, 0u)
      << "phase timers or the wall sampler allocated on the query "
         "thread's budget — a flush left its preallocated histograms, "
         "or the signal handler escaped the static ring pool";
}

TEST(HotPathAllocTest, ArenaSwitchReachesSteadyStateAcrossDagSizes) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }

  Random rng(92);
  auto small = graph::GenerateRandomTree(16, rng);
  auto large = graph::GenerateDiamondStack(8);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  acm::ExplicitAcm small_acm, large_acm;
  const acm::ObjectId o_small = small_acm.InternObject("o").value();
  const acm::RightId r_small = small_acm.InternRight("r").value();
  const acm::ObjectId o_large = large_acm.InternObject("o").value();
  const acm::RightId r_large = large_acm.InternRight("r").value();
  ASSERT_TRUE(small_acm.Set(0, o_small, r_small, acm::Mode::kPositive).ok());
  ASSERT_TRUE(large_acm.Set(1, o_large, r_large, acm::Mode::kNegative).ok());

  const Strategy strategy = ParseStrategy("D+LP-").value();
  const auto sweep = [&] {
    for (graph::NodeId v = 0; v < small->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*small, small_acm, v, o_small, r_small, strategy)
              .ok());
    }
    for (graph::NodeId v = 0; v < large->node_count(); ++v) {
      ASSERT_TRUE(
          ResolveAccess(*large, large_acm, v, o_large, r_large, strategy)
              .ok());
    }
  };

  // Alternating between hierarchies of different sizes must not evict
  // the arenas back to cold: epochs invalidate, capacity stays.
  sweep();
  const uint64_t before = AllocationCount();
  sweep();
  sweep();
  EXPECT_EQ(AllocationCount() - before, 0u);
}


// Publish heap traffic (DESIGN.md §11): a publication shares every page,
// chunk and column its edit did not write, so one edit on a
// 2^16-subject store copies O(touched pages + affected nodes), not
// O(subjects). Each one-op `ApplyMutations` below — a membership
// toggle and a grant toggle, each followed by a snapshot read — must
// allocate under 256 KiB, the new snapshot's decision table included.
// Copying the per-node arrays and the matrix whole costs several MiB
// per publication.
TEST(HotPathAllocTest, OneOpPublishAllocatesOnlyWhatTheEditTouches) {
  if (UCR_ALLOC_TEST_SKIP) {
    GTEST_SKIP() << "allocation bounds are checked without sanitizers";
  }

  constexpr size_t kNodes = size_t{1} << 16;
  constexpr size_t kLayers = 16;
  constexpr size_t kWidth = kNodes / kLayers;
  Random rng(94);
  graph::ScaleLayeredDagOptions shape;
  shape.nodes = kNodes;
  shape.layers = kLayers;
  auto dag = graph::GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId objects[] = {eacm.InternObject("doc").value(),
                                   eacm.InternObject("vault").value()};
  const acm::RightId rights[] = {eacm.InternRight("read").value(),
                                 eacm.InternRight("write").value()};
  graph::NodeId group = graph::kInvalidNode;
  for (graph::NodeId v = 0; v < 2 * kWidth; ++v) {
    if (!rng.Bernoulli(v < kWidth ? 0.3 : 0.02)) continue;
    for (const acm::ObjectId o : objects) {
      const acm::Mode mode =
          rng.Bernoulli(0.5) ? acm::Mode::kPositive : acm::Mode::kNegative;
      ASSERT_TRUE(eacm.Set(v, o, rights[v % 2], mode).ok());
    }
    if (v >= kWidth && group == graph::kInvalidNode) group = v;
  }
  ASSERT_NE(group, graph::kInvalidNode);
  AccessControlSystem system(std::move(dag).value(), std::move(eacm),
                             SystemOptions{});
  system.EnableSnapshotReads();
  const graph::Dag& master = system.dag();
  graph::NodeId leaf = kNodes - 1;
  while (master.HasEdge(group, leaf)) --leaf;
  // The rights toggle targets the mid-layer subject with the median
  // descendant count: its grant relabels ~200 nodes scattered over the
  // lower half of the id space. The cost is O(relabeled nodes) — their
  // new labels and the slot pages they sit in — so the bound holds for
  // a typical toggle, not for the widest subjects.
  std::vector<std::pair<size_t, graph::NodeId>> widths;
  for (graph::NodeId v = kLayers / 2 * kWidth; v < (kLayers / 2 + 1) * kWidth;
       ++v) {
    if (!system.eacm().Get(v, objects[0], rights[0]).has_value()) {
      widths.emplace_back(master.DescendantsOf(v).size(), v);
    }
  }
  const auto median = widths.begin() + std::ssize(widths) / 2;
  std::nth_element(widths.begin(), median, widths.end());
  const graph::NodeId mid = median->second;
  ASSERT_GT(median->first, 100u);

  using Op = AccessControlSystem::MutationOp;
  const Op ops[] = {
      Op::AddMember(master.name(group), master.name(leaf)),
      Op::RemoveMember(master.name(group), master.name(leaf)),
      Op::Grant(master.name(mid), "doc", "read"),
      Op::Revoke(master.name(mid), "doc", "read"),
  };
  const auto cycle = [&](bool measure) {
    for (const Op& op : ops) {
      const uint64_t before = AllocatedBytes();
      ASSERT_TRUE(system.ApplyMutations(std::span<const Op>(&op, 1)).ok());
      ASSERT_TRUE(
          system.CheckAccessSnapshot(leaf, objects[0], rights[0]).ok());
      const uint64_t bytes = AllocatedBytes() - before;
      if (!measure) continue;
      EXPECT_LT(bytes, uint64_t{256} << 10)
          << AccessControlSystem::MutationOpKindName(op.kind) << ": "
          << bytes << " bytes";
    }
  };
  cycle(/*measure=*/false);  // Warm-up: arenas, scratch, interned classes.
  cycle(/*measure=*/false);
  cycle(/*measure=*/true);
}

}  // namespace
}  // namespace ucr::core
