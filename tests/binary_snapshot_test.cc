#include "core/binary_snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "paper/paper_example.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace ucr::core {
namespace {

using acm::Mode;

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  system.SetStrategy(ParseStrategy("D+LMP-").value());
  return system;
}

TEST(BinarySnapshotTest, RoundTripPreservesEverything) {
  AccessControlSystem original = MakePaperSystem();
  const std::string bytes = EncodeBinarySnapshot(original, /*lsn=*/17);

  SnapshotMeta meta;
  auto loaded = DecodeBinarySnapshot(bytes, {}, &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(meta.lsn, 17u);
  EXPECT_EQ(loaded->strategy().ToMnemonic(), "D+LMP-");
  EXPECT_EQ(loaded->dag().node_count(), original.dag().node_count());
  EXPECT_EQ(loaded->dag().edge_count(), original.dag().edge_count());
  EXPECT_EQ(loaded->eacm().size(), original.eacm().size());

  // Node ids, interned object/right ids, and edge iteration order all
  // survive — the decisions must be identical under every strategy.
  for (graph::NodeId v = 0; v < original.dag().node_count(); ++v) {
    EXPECT_EQ(loaded->dag().name(v), original.dag().name(v));
  }
  EXPECT_EQ(loaded->eacm().FindObject("obj").value(),
            original.eacm().FindObject("obj").value());
  for (const Strategy& s : AllStrategies()) {
    for (graph::NodeId v = 0; v < original.dag().node_count(); ++v) {
      const std::string& name = original.dag().name(v);
      EXPECT_EQ(loaded->CheckAccessByName(name, "obj", "read", s).value(),
                original.CheckAccessByName(name, "obj", "read", s).value())
          << s.ToMnemonic() << " subject " << name;
    }
  }
}

TEST(BinarySnapshotTest, SecondEncodeIsByteIdentical) {
  AccessControlSystem original = MakePaperSystem();
  const std::string once = EncodeBinarySnapshot(original, 5);
  auto loaded = DecodeBinarySnapshot(once, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(EncodeBinarySnapshot(*loaded, 5), once);
}

TEST(BinarySnapshotTest, PropagationModeSurvives) {
  PaperExample ex = MakePaperExample();
  SystemOptions options;
  options.propagation_mode = PropagationMode::kSecondWins;
  AccessControlSystem original(std::move(ex.dag), options);
  ASSERT_TRUE(original.Grant("S2", "obj", "read").ok());

  auto loaded = DecodeBinarySnapshot(EncodeBinarySnapshot(original, 1), {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->propagation_mode(), PropagationMode::kSecondWins);
}

// An enterprise-scale store with several columns and post-load
// mutations: the reloaded system must keep answering and mutating
// exactly like the original (interned ids stay live).
TEST(BinarySnapshotTest, EnterpriseRoundTripStaysMutable) {
  Random rng(20260808);
  workload::EnterpriseOptions shape;
  shape.individuals = 200;
  shape.groups = 120;
  shape.top_level_groups = 6;
  shape.target_edges = 700;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  ASSERT_TRUE(dag.ok());
  AccessControlSystem original(std::move(dag).value());
  for (int i = 0; i < 40; ++i) {
    const std::string subject = original.dag().name(static_cast<graph::NodeId>(
        rng.Uniform(original.dag().node_count())));
    const std::string right = (i % 2) != 0 ? "read" : "write";
    // Denies and grants target disjoint objects: a repeat of the same
    // triple is an idempotent no-op, never an opposite-mode conflict.
    if (i % 3 == 0) {
      const std::string object = "secret" + std::to_string(i % 5);
      ASSERT_TRUE(original.DenyAccess(subject, object, right).ok());
    } else {
      const std::string object = "doc" + std::to_string(i % 5);
      ASSERT_TRUE(original.Grant(subject, object, right).ok());
    }
  }

  auto loaded = DecodeBinarySnapshot(EncodeBinarySnapshot(original, 9), {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Same decisions...
  for (graph::NodeId v = 0; v < original.dag().node_count(); v += 7) {
    const std::string& name = original.dag().name(v);
    auto a = original.CheckAccessByName(name, "doc1", "read");
    auto b = loaded->CheckAccessByName(name, "doc1", "read");
    ASSERT_EQ(a.ok(), b.ok()) << name;
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value()) << name;
    }
  }
  // ...and the loaded store accepts further mutations identically.
  ASSERT_TRUE(original.Grant("user0", "doc9", "own").ok());
  ASSERT_TRUE(loaded->Grant("user0", "doc9", "own").ok());
  EXPECT_EQ(loaded->CheckAccessByName("user0", "doc9", "own").value(),
            original.CheckAccessByName("user0", "doc9", "own").value());
}

TEST(BinarySnapshotTest, FileRoundTripViaMmap) {
  AccessControlSystem original = MakePaperSystem();
  const std::string path = ::testing::TempDir() + "/ucr_snapshot_test.ucrs";
  ASSERT_TRUE(WriteBinarySnapshot(original, 3, path).ok());
  SnapshotMeta meta;
  auto loaded = LoadBinarySnapshot(path, {}, &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(meta.lsn, 3u);
  EXPECT_EQ(loaded->eacm().size(), 3u);
  std::remove(path.c_str());
  EXPECT_EQ(LoadBinarySnapshot(path, {}).status().code(),
            StatusCode::kNotFound);
}

TEST(BinarySnapshotTest, TruncationsAreCleanErrors) {
  AccessControlSystem original = MakePaperSystem();
  const std::string bytes = EncodeBinarySnapshot(original, 1);
  // Every prefix must fail cleanly — header, section boundary, or
  // mid-section.
  for (size_t len = 0; len < bytes.size(); len += 13) {
    auto result = DecodeBinarySnapshot(bytes.substr(0, len), {});
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(BinarySnapshotTest, BadMagicRejected) {
  AccessControlSystem original = MakePaperSystem();
  std::string bytes = EncodeBinarySnapshot(original, 1);
  bytes[0] = 'X';
  auto result = DecodeBinarySnapshot(bytes, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(BinarySnapshotTest, VersionSkewRejectedWithBothVersions) {
  AccessControlSystem original = MakePaperSystem();
  std::string bytes = EncodeBinarySnapshot(original, 1);
  bytes[8] = 2;  // Version field follows the 8-byte magic.
  // Header CRC must be recomputed or the version check is shadowed by
  // the checksum check; patch the CRC to isolate the version path.
  // (A future writer would produce exactly this: valid CRC, higher
  // version.)
  const size_t header_size = 8 + 4 + 8 + 1 + 1 + 2 + 12 * 2 + 4;
  const uint32_t crc = Crc32(bytes.data(), header_size - 4);
  for (size_t i = 0; i < 4; ++i) {
    bytes[header_size - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  auto result = DecodeBinarySnapshot(bytes, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(BinarySnapshotTest, FlippedBodyBitFailsSectionChecksum) {
  AccessControlSystem original = MakePaperSystem();
  std::string bytes = EncodeBinarySnapshot(original, 1);
  bytes[bytes.size() - 3] ^= 0x04;  // Somewhere in the ACM section.
  auto result = DecodeBinarySnapshot(bytes, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

}  // namespace
}  // namespace ucr::core
