// Epoch machinery tests (DESIGN.md §11): the lock-free per-snapshot
// decision table, the slot-ring publication/reclamation protocol, and the
// torn-publish scenario — a reader pinned on epoch N while the writer
// publishes N+1 and tries to retire N. The whole file runs under the
// tsan preset (label `epoch`), so the concurrent cases double as data-
// race proofs, not just logic checks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;

TEST(EpochResolutionTableTest, StoreLookupRoundTrip) {
  EpochResolutionTable table(64);
  EXPECT_EQ(table.capacity(), 64u);
  EXPECT_FALSE(table.Lookup(1, 2, 3, 0).has_value());
  ASSERT_TRUE(table.TryStore(1, 2, 3, 0, Mode::kPositive));
  ASSERT_TRUE(table.TryStore(1, 2, 3, 7, Mode::kNegative));
  EXPECT_EQ(table.Lookup(1, 2, 3, 0), Mode::kPositive);
  // Same triple, different canonical strategy: distinct entry.
  EXPECT_EQ(table.Lookup(1, 2, 3, 7), Mode::kNegative);
  EXPECT_FALSE(table.Lookup(1, 2, 3, 1).has_value());
  EXPECT_FALSE(table.Lookup(9, 2, 3, 0).has_value());
  EXPECT_EQ(table.size(), 2u);
}

TEST(EpochResolutionTableTest, CapacityRoundsUpAndLoadCaps) {
  EpochResolutionTable table(3);  // Rounds up to 4; load cap 3.
  EXPECT_EQ(table.capacity(), 4u);
  size_t stored = 0;
  for (uint32_t s = 0; s < 16; ++s) {
    if (table.TryStore(s, 0, 0, 0, Mode::kPositive)) ++stored;
  }
  EXPECT_LE(stored, 3u);  // 3/4 load cap.
  EXPECT_GT(stored, 0u);
  // Stored entries stay readable; refused ones are simply absent.
  size_t readable = 0;
  for (uint32_t s = 0; s < 16; ++s) {
    if (table.Lookup(s, 0, 0, 0).has_value()) ++readable;
  }
  EXPECT_EQ(readable, stored);
}

TEST(EpochResolutionTableTest, ForEachEnumeratesReadyEntries) {
  EpochResolutionTable table(64);
  ASSERT_TRUE(table.TryStore(5, 1, 2, 3, Mode::kPositive));
  ASSERT_TRUE(table.TryStore(6, 0, 0, 0, Mode::kNegative));
  size_t seen = 0;
  table.ForEach([&](graph::NodeId s, acm::ObjectId o, acm::RightId r,
                    uint8_t strategy, Mode mode) {
    ++seen;
    if (s == 5) {
      EXPECT_EQ(o, 1);
      EXPECT_EQ(r, 2);
      EXPECT_EQ(strategy, 3);
      EXPECT_EQ(mode, Mode::kPositive);
    } else {
      EXPECT_EQ(s, 6u);
      EXPECT_EQ(mode, Mode::kNegative);
    }
  });
  EXPECT_EQ(seen, 2u);
}

TEST(EpochResolutionTableTest, ConcurrentStoresStayConsistent) {
  EpochResolutionTable table(1 << 12);
  constexpr int kThreads = 4;
  constexpr uint32_t kSubjects = 512;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table] {
      // All threads derive the same deterministic decision per triple,
      // exactly like racing snapshot readers.
      for (uint32_t s = 0; s < kSubjects; ++s) {
        table.TryStore(s, 0, 0, 0,
                       (s % 3 == 0) ? Mode::kPositive : Mode::kNegative);
        const auto seen = table.Lookup(s, 0, 0, 0);
        if (seen.has_value()) {
          EXPECT_EQ(*seen,
                    (s % 3 == 0) ? Mode::kPositive : Mode::kNegative);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (uint32_t s = 0; s < kSubjects; ++s) {
    const auto seen = table.Lookup(s, 0, 0, 0);
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(*seen, (s % 3 == 0) ? Mode::kPositive : Mode::kNegative);
  }
}

std::unique_ptr<const HierarchySnapshot> MakeSnapshot(
    const AccessControlSystem& system, uint64_t epoch,
    const HierarchySnapshot* previous = nullptr) {
  return BuildSnapshot(system.dag(), system.eacm(), system.strategy(),
                       system.propagation_mode(), epoch, previous,
                       /*resolution_capacity=*/1 << 10);
}

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  return system;
}

TEST(SnapshotManagerTest, PinBeforeFirstPublishIsEmpty) {
  SnapshotManager manager;
  EXPECT_EQ(manager.current_epoch(), 0u);
  const SnapshotManager::ReadPin pin = manager.Pin();
  EXPECT_FALSE(pin);
  EXPECT_EQ(manager.active_readers(), 0u);
}

TEST(SnapshotManagerTest, PublishPinRelease) {
  AccessControlSystem system = MakePaperSystem();
  SnapshotManager manager;
  manager.Publish(MakeSnapshot(system, 1));
  EXPECT_EQ(manager.current_epoch(), 1u);
  EXPECT_EQ(manager.published_total(), 1u);
  {
    const SnapshotManager::ReadPin pin = manager.Pin();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->epoch, 1u);
    EXPECT_EQ(manager.active_readers(), 1u);
    const SnapshotManager::ReadPin second = manager.Pin();
    EXPECT_EQ(manager.active_readers(), 2u);
  }
  EXPECT_EQ(manager.active_readers(), 0u);
}

TEST(SnapshotManagerTest, RetiresOnlyAfterRingWraps) {
  AccessControlSystem system = MakePaperSystem();
  SnapshotManager manager;
  const size_t n = SnapshotManager::kEpochSlots + 2;
  for (uint64_t e = 1; e <= n; ++e) {
    manager.Publish(MakeSnapshot(system, e));
  }
  EXPECT_EQ(manager.current_epoch(), n);
  EXPECT_EQ(manager.published_total(), n);
  // The ring retains the last kEpochSlots snapshots; everything older
  // was retired when its slot was reused.
  EXPECT_EQ(manager.retired_total(), n - SnapshotManager::kEpochSlots);
}

/// The torn-publish scenario: a reader pinned on epoch N keeps its
/// snapshot fully usable while the writer publishes N+1 and — once the
/// ring wraps onto N's slot — blocks in Publish until the pin drops.
TEST(SnapshotManagerTest, PinnedReaderSurvivesPublishAndBlocksReclaim) {
  AccessControlSystem system = MakePaperSystem();
  SnapshotManager manager;
  manager.Publish(MakeSnapshot(system, 1));

  SnapshotManager::ReadPin pin = manager.Pin();
  ASSERT_TRUE(pin);
  ASSERT_EQ(pin->epoch, 1u);

  // Publish up to the ring edge: epoch 1's slot is not reused yet, so
  // none of these can block.
  for (uint64_t e = 2; e <= SnapshotManager::kEpochSlots; ++e) {
    manager.Publish(MakeSnapshot(system, e));
  }
  // The pinned snapshot still answers queries — its state is epoch
  // 1's, untouched by the newer publications.
  const auto pinned_mode = SnapshotResolveAccess(
      *pin, 0, acm::ObjectId{0}, acm::RightId{0}, pin->default_strategy);
  ASSERT_TRUE(pinned_mode.ok());
  EXPECT_EQ(manager.current_epoch(), SnapshotManager::kEpochSlots);
  EXPECT_EQ(manager.retired_total(), 0u);

  // Epoch kEpochSlots + 1 maps onto epoch 1's slot: the writer must
  // wait for the pin. Run it on a thread and verify it does not
  // complete while the pin is held.
  std::atomic<bool> published{false};
  std::thread writer([&] {
    manager.Publish(MakeSnapshot(system, SnapshotManager::kEpochSlots + 1));
    published.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  // The pinned reader can still resolve right up to release.
  ASSERT_TRUE(SnapshotResolveAccess(*pin, 1, acm::ObjectId{0},
                                    acm::RightId{0}, pin->default_strategy)
                  .ok());
  pin = SnapshotManager::ReadPin();  // Release: unblocks the writer.
  writer.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  EXPECT_EQ(manager.current_epoch(), SnapshotManager::kEpochSlots + 1);
  EXPECT_EQ(manager.retired_total(), 1u);
}

/// tsan workhorse: N reader threads pin/query/unpin continuously while
/// one writer keeps mutating the system (each successful mutator
/// publishes). Any torn publication, use-after-retire, or unsynchron-
/// ized table access shows up as a race or a failed decision here.
TEST(SnapshotManagerTest, ConcurrentReadersUnderContinuousMutation) {
  AccessControlSystem system = MakePaperSystem();
  system.EnableSnapshotReads();
  ASSERT_NE(system.snapshots(), nullptr);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const size_t subjects = system.dag().node_count();
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto subject = static_cast<graph::NodeId>(
            (local + static_cast<uint64_t>(t)) % subjects);
        const auto mode = system.CheckAccessSnapshot(
            subject, acm::ObjectId{0}, acm::RightId{0});
        // The snapshot path can never fail on valid ids, no matter
        // what the writer is doing.
        ASSERT_TRUE(mode.ok()) << mode.status().ToString();
        ++local;
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Writer: alternating grant/revoke batches plus membership churn on
  // a side chain, so hierarchy generations and column epochs both
  // move.
  for (int round = 0; round < 40; ++round) {
    std::vector<AccessControlSystem::MutationOp> ops;
    if (round % 2 == 0) {
      ops.push_back(AccessControlSystem::MutationOp::Grant(
          "S3", "obj", "read"));
      ops.push_back(AccessControlSystem::MutationOp::AddMember(
          "S1", "churn" + std::to_string(round)));
    } else {
      ops.push_back(AccessControlSystem::MutationOp::Revoke(
          "S3", "obj", "read"));
    }
    ASSERT_TRUE(system.ApplyMutations(ops).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_GE(system.snapshots()->published_total(), 40u);

  // Quiesced: final snapshot state equals the classic path's.
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    const auto snap =
        system.CheckAccessSnapshot(v, acm::ObjectId{0}, acm::RightId{0});
    const auto classic = system.CheckAccess(v, acm::ObjectId{0},
                                            acm::RightId{0},
                                            system.strategy());
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(classic.ok());
    EXPECT_EQ(*snap, *classic);
  }
}

TEST(SnapshotSystemTest, DisabledPathFailsPrecondition) {
  AccessControlSystem system = MakePaperSystem();
  EXPECT_FALSE(system.snapshot_reads_enabled());
  EXPECT_EQ(system.snapshots(), nullptr);
  const auto mode =
      system.CheckAccessSnapshot(0, acm::ObjectId{0}, acm::RightId{0});
  EXPECT_FALSE(mode.ok());
  system.EnableSnapshotReads();
  system.EnableSnapshotReads();  // Idempotent.
  EXPECT_TRUE(system.snapshot_reads_enabled());
  EXPECT_TRUE(
      system.CheckAccessSnapshot(0, acm::ObjectId{0}, acm::RightId{0}).ok());
}

TEST(SnapshotSystemTest, PinnedSnapshotNeverSeesSubjectCreatedAfterIt) {
  // Snapshots share the writer's name table until an edit creates a
  // subject; the creating write must clone the table, not append to
  // the copy a pinned reader is looking at.
  AccessControlSystem system = MakePaperSystem();
  system.EnableSnapshotReads();
  EXPECT_EQ(system.CheckAccessSnapshotByName("NewHire", "obj", "read")
                .status()
                .code(),
            StatusCode::kNotFound);
  const SnapshotManager::ReadPin pinned = system.snapshots()->Pin();
  ASSERT_TRUE(pinned);
  const size_t pinned_nodes = pinned->dag.node_count();

  ASSERT_TRUE(system.AddMembership("S2", "NewHire").ok());

  EXPECT_EQ(pinned->dag.FindNode("NewHire"), graph::kInvalidNode);
  EXPECT_EQ(pinned->dag.node_count(), pinned_nodes);
  EXPECT_EQ(pinned->dag.FindNode("S2"), system.dag().FindNode("S2"));
  // The next epoch resolves the new subject, like the master state.
  const auto fresh =
      system.CheckAccessSnapshotByName("NewHire", "obj", "read");
  const auto master = system.CheckAccessByName("NewHire", "obj", "read");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(master.ok());
  EXPECT_EQ(*fresh, *master);
}


TEST(SnapshotSystemTest, DecisionTableIsSizedFromTheEntriesItCarries) {
  // The rule: two slots per entry of the previous table, a power of
  // two, clamped to [2^10, 2^22].
  EXPECT_EQ(NextResolutionCapacity(0), size_t{1} << 10);
  EXPECT_EQ(NextResolutionCapacity(512), size_t{1} << 10);
  EXPECT_EQ(NextResolutionCapacity(513), size_t{1} << 11);
  EXPECT_EQ(NextResolutionCapacity(600), size_t{1} << 11);
  EXPECT_EQ(NextResolutionCapacity(size_t{1} << 21), size_t{1} << 22);
  EXPECT_EQ(NextResolutionCapacity(size_t{3} << 20), size_t{1} << 22);

  Random rng(21);
  graph::ScaleLayeredDagOptions shape;
  shape.nodes = 2048;
  shape.layers = 4;
  auto built = graph::GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  acm::ExplicitAcm eacm;
  const acm::RightId read = eacm.InternRight("read").value();
  const acm::ObjectId doc = eacm.InternObject("doc").value();
  ASSERT_TRUE(eacm.InternObject("memo").ok());
  ASSERT_TRUE(eacm.Set(0, doc, read, Mode::kPositive).ok());
  AccessControlSystem system(std::move(built).value(), std::move(eacm),
                             SystemOptions{});
  system.EnableSnapshotReads();
  const auto table = [&] {
    const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
    return std::pair(pin->resolution.capacity(), pin->resolution.size());
  };
  EXPECT_EQ(table().first, size_t{1} << 14);  // The first publish.

  // 600 decisions on `doc`, then an edit of another column: the next
  // table carries all 600 in 2 * 600 slots, rounded up.
  for (graph::NodeId v = 0; v < 600; ++v) {
    ASSERT_TRUE(system.CheckAccessSnapshot(v, doc, read).ok());
  }
  ASSERT_EQ(table().second, 600u);
  const std::string subject = system.dag().name(1);
  ASSERT_TRUE(system.Grant(subject, "memo", "read").ok());
  EXPECT_EQ(table(), std::pair(size_t{1} << 11, size_t{600}));

  // An edit of `doc` drops its entries; the table after the one that
  // dropped them shrinks to the floor.
  ASSERT_TRUE(system.Grant(subject, "doc", "read").ok());
  EXPECT_EQ(table(), std::pair(size_t{1} << 11, size_t{0}));
  ASSERT_TRUE(system.Revoke(subject, "memo", "read").ok());
  EXPECT_EQ(table(), std::pair(size_t{1} << 10, size_t{0}));
}


/// Copy-on-write sharing (DESIGN.md §11): a snapshot shares the
/// writer's graph pages and adjacency chunks, matrix columns and index
/// slot pages. All four ring epochs stay pinned — nothing can be
/// retired — while the writer runs hundreds of edits on exactly the
/// pages and columns they share and readers keep querying them. Each
/// pinned epoch must keep answering as the classic oracle did when it
/// was published; under tsan a write to a shared page is also a race.
TEST(SnapshotSharingTest, PinnedEpochsKeepAnsweringWhileWriterEditsShared) {
  Random rng(20261017);
  graph::ScaleLayeredDagOptions shape;
  shape.nodes = 2048;  // Several pages per per-node array.
  shape.layers = 4;
  shape.parents_per_node = 2;
  auto built = graph::GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  graph::Dag dag = std::move(built).value();
  acm::ExplicitAcm eacm;
  const acm::RightId right = eacm.InternRight("read").value();
  const acm::ObjectId objects[] = {eacm.InternObject("a").value(),
                                   eacm.InternObject("b").value()};
  const graph::NodeId groups_end = 2 * 2048 / 4;  // Top two layers.
  for (graph::NodeId v = 0; v < groups_end; ++v) {
    if (rng.Bernoulli(0.1)) {
      ASSERT_TRUE(eacm.Set(v, objects[v % 2], right,
                           rng.Bernoulli(0.5) ? Mode::kPositive
                                              : Mode::kNegative)
                      .ok());
    }
  }
  const Strategy strategy = ParseStrategy("D+LP-").value();
  std::shared_ptr<const graph::ReachabilityIndex> index =
      graph::ReachabilityIndex::Build(dag, eacm.epoch(), eacm.ReachRows());
  ASSERT_TRUE(index->ready());

  // A few groups and leaves, so the edits keep hitting the same pages,
  // chunks and columns; the queries cover the leaves and a sink sample.
  const graph::NodeId leaves_begin = 3 * 2048 / 4;
  std::vector<graph::NodeId> edit_groups;
  std::vector<graph::NodeId> edit_leaves;
  for (int i = 0; i < 4; ++i) {
    edit_groups.push_back(static_cast<graph::NodeId>(rng.Uniform(groups_end)));
    edit_leaves.push_back(leaves_begin +
                          static_cast<graph::NodeId>(rng.Uniform(512)));
  }
  std::vector<graph::NodeId> subjects = edit_leaves;
  for (graph::NodeId v = leaves_begin; v < 2048; v += 16) {
    subjects.push_back(v);
  }

  uint64_t edits = 0;
  const auto edit = [&] {
    const uint64_t i = edits++;
    const graph::NodeId group = edit_groups[i % edit_groups.size()];
    std::vector<graph::NodeId> affected;
    std::vector<graph::ReachLabeledRow> rows;
    if (i % 2 == 0) {
      const graph::NodeId leaf = edit_leaves[(i / 2) % edit_leaves.size()];
      const Status s = dag.HasEdge(group, leaf)
                           ? dag.EraseEdge(group, leaf, &affected)
                           : dag.InsertEdge(group, leaf, &affected);
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      const acm::ObjectId object = objects[(i / 2) % 2];
      if (!eacm.Erase(group, object, right)) {
        eacm.Overwrite(group, object, right,
                       i % 3 == 0 ? Mode::kNegative : Mode::kPositive);
      }
      affected = dag.DescendantsOf(group);
      rows = eacm.ReachRowsFor(std::span<const graph::NodeId>(&group, 1));
    }
    index = graph::ReachabilityIndex::RebuildIncremental(
        dag, eacm.epoch(), index, affected, rows);
  };
  const auto oracle = [&] {
    ResolveAccessOptions classic;
    classic.use_fast_path = false;
    classic.use_reachability_index = false;
    std::vector<Mode> answers;
    for (const graph::NodeId s : subjects) {
      for (const acm::ObjectId o : objects) {
        const auto mode = ResolveAccess(dag, eacm, s, o, right, strategy,
                                        classic);
        EXPECT_TRUE(mode.ok());
        answers.push_back(mode.ok() ? *mode : Mode::kNegative);
      }
    }
    return answers;
  };

  SnapshotManager manager;
  std::vector<SnapshotManager::ReadPin> pins;
  std::vector<std::vector<Mode>> expected;
  for (uint64_t epoch = 1; epoch <= SnapshotManager::kEpochSlots; ++epoch) {
    for (int k = 0; k < 3; ++k) edit();
    const SnapshotManager::ReadPin previous = manager.Pin();
    manager.Publish(BuildSnapshot(dag, eacm, strategy, PropagationMode::kBoth,
                                  epoch, previous.get(), 1 << 10, index));
    pins.push_back(manager.Pin());
    ASSERT_EQ(pins.back()->epoch, epoch);
    ASSERT_EQ(pins.back()->reach_index, index);
    expected.push_back(oracle());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  // Both the served answer (indexed) and the classic oracle over the
  // snapshot's own graph and matrix copies, so a shared page, chunk or
  // column the writer wrote in place shows whichever path reads it.
  const auto check = [&](size_t p) {
    const HierarchySnapshot& snapshot = *pins[p];
    ResolveAccessOptions classic;
    classic.use_fast_path = false;
    classic.use_reachability_index = false;
    size_t q = 0;
    for (const graph::NodeId s : subjects) {
      for (const acm::ObjectId o : objects) {
        const auto served = SnapshotResolveAccess(snapshot, s, o, right,
                                                  strategy);
        const auto copied = ResolveAccess(snapshot.dag, snapshot.eacm, s, o,
                                          right, strategy, classic);
        if (!served.ok() || *served != expected[p][q] || !copied.ok() ||
            *copied != expected[p][q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        ++q;
      }
    }
  };
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = t; !stop.load(std::memory_order_relaxed); ++round) {
        check(round % pins.size());
      }
    });
  }
  while (edits < 4 * 3 + 500) edit();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(manager.retired_total(), 0u);
  EXPECT_EQ(manager.current_epoch(), SnapshotManager::kEpochSlots);
  for (size_t p = 0; p < pins.size(); ++p) check(p);
  EXPECT_EQ(mismatches.load(), 0u);
  // The edits did change answers the pinned epochs must not see.
  const std::vector<Mode> now = oracle();
  size_t stale = 0;
  for (const std::vector<Mode>& answers : expected) stale += answers != now;
  EXPECT_GT(stale, 0u);
}

}  // namespace
}  // namespace ucr::core
