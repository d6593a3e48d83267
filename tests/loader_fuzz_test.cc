// Robustness fuzzing of every loader — the text formats and the binary
// snapshot format: random mutations of valid inputs (byte flips,
// truncations, line shuffles, duplications) must always produce either
// a successful parse or a clean error — never a crash, hang, or
// invariant break in the parsed result.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acm/acm.h"
#include "core/binary_snapshot.h"
#include "core/storage.h"
#include "core/system.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "paper/mixed_system.h"
#include "paper/paper_example.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ucr {
namespace {

std::string Mutate(const std::string& input, Random& rng) {
  std::string out = input;
  switch (rng.Uniform(5)) {
    case 0: {  // Byte flip.
      if (out.empty()) break;
      const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
      out[pos] = static_cast<char>(' ' + rng.Uniform(95));
      break;
    }
    case 1: {  // Truncation.
      out.resize(static_cast<size_t>(rng.Uniform(out.size() + 1)));
      break;
    }
    case 2: {  // Delete one line.
      std::vector<std::string> lines = Split(out, '\n');
      if (lines.empty()) break;
      lines.erase(lines.begin() +
                  static_cast<long>(rng.Uniform(lines.size())));
      out = Join(lines, "\n");
      break;
    }
    case 3: {  // Duplicate one line.
      std::vector<std::string> lines = Split(out, '\n');
      if (lines.empty()) break;
      const size_t pick = static_cast<size_t>(rng.Uniform(lines.size()));
      lines.insert(lines.begin() + static_cast<long>(pick), lines[pick]);
      out = Join(lines, "\n");
      break;
    }
    case 4: {  // Shuffle all lines.
      std::vector<std::string> lines = Split(out, '\n');
      rng.Shuffle(lines);
      out = Join(lines, "\n");
      break;
    }
  }
  return out;
}

TEST(LoaderFuzzTest, GraphLoaderNeverCrashes) {
  const core::PaperExample ex = core::MakePaperExample();
  const std::string valid = graph::ToEdgeListText(ex.dag);
  Random rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    for (uint64_t i = 0; i <= rng.Uniform(3); ++i) {
      mutated = Mutate(mutated, rng);
    }
    auto result = graph::FromEdgeListText(mutated);
    if (result.ok()) {
      // A successful parse must uphold the structure invariants.
      EXPECT_EQ(result->TopologicalOrder().size(), result->node_count());
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(LoaderFuzzTest, AcmLoaderNeverCrashes) {
  const core::PaperExample ex = core::MakePaperExample();
  const std::string valid = acm::ToText(ex.eacm, ex.dag);
  Random rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string mutated = Mutate(valid, rng);
    auto result = acm::FromText(mutated, ex.dag);
    if (result.ok()) {
      EXPECT_LE(result->size(), ex.eacm.size() + 2);
    }
  }
}

TEST(LoaderFuzzTest, SystemLoaderNeverCrashes) {
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  const std::string valid = core::SaveSystemToText(system);
  Random rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    for (uint64_t i = 0; i <= rng.Uniform(2); ++i) {
      mutated = Mutate(mutated, rng);
    }
    auto result = core::LoadSystemFromText(mutated);
    if (result.ok()) {
      // Loaded systems must be fully functional.
      for (const core::Strategy& s : core::AllStrategies()) {
        auto mode = result->CheckAccessByName("User", "obj", "read", s);
        if (!mode.ok()) break;  // Names may have mutated away; fine.
      }
    }
  }
}

TEST(LoaderFuzzTest, MixedSystemLoaderNeverCrashes) {
  auto subjects = graph::FromEdgeListText("edge g u\n");
  auto objects = graph::FromEdgeListText("edge folder doc\n");
  ASSERT_TRUE(subjects.ok());
  ASSERT_TRUE(objects.ok());
  core::MixedAccessControlSystem mixed(std::move(subjects).value(),
                                       std::move(objects).value());
  ASSERT_TRUE(mixed.Grant("g", "folder", "read").ok());
  const std::string valid = core::SaveMixedSystemToText(mixed);
  Random rng(4);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string mutated = Mutate(valid, rng);
    auto result = core::LoadMixedSystemFromText(mutated);
    if (result.ok()) {
      EXPECT_LE(result->authorization_count(), 3u);
    }
  }
}

// Binary-format mutations: flips anywhere (header, section table, CSR
// arrays, name tables), truncations, and length-field forgeries. The
// checksums catch most flips; the point of the fuzz is the ones they
// can't distinguish from structure (lengths, counts, offsets), which
// the bounds-checked reader and `Dag::FromCsr` re-validation must turn
// into clean `kCorruption` errors — under asan/ubsan this is the proof
// the mmap'd loader never reads out of bounds on hostile input.
std::string MutateBinary(const std::string& input, Random& rng) {
  std::string out = input;
  switch (rng.Uniform(4)) {
    case 0: {  // Single byte to a random value.
      if (out.empty()) break;
      const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
      out[pos] = static_cast<char>(rng.Uniform(256));
      break;
    }
    case 1: {  // Single bit flip.
      if (out.empty()) break;
      const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
      out[pos] = static_cast<char>(
          static_cast<unsigned char>(out[pos]) ^ (1u << rng.Uniform(8)));
      break;
    }
    case 2: {  // Truncation.
      out.resize(static_cast<size_t>(rng.Uniform(out.size() + 1)));
      break;
    }
    case 3: {  // Splice a run of random bytes (forged lengths/counts).
      if (out.empty()) break;
      const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
      const size_t run =
          std::min(out.size() - pos, 1 + static_cast<size_t>(rng.Uniform(8)));
      for (size_t i = 0; i < run; ++i) {
        out[pos + i] = static_cast<char>(rng.Uniform(256));
      }
      break;
    }
  }
  return out;
}

TEST(LoaderFuzzTest, BinarySnapshotLoaderNeverCrashes) {
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  ASSERT_TRUE(system.Grant("S4", "doc", "write").ok());
  const std::string valid = core::EncodeBinarySnapshot(system, /*lsn=*/42);

  // The pristine encoding decodes; every mutant either decodes to a
  // structurally valid system or fails with a message-bearing error.
  ASSERT_TRUE(core::DecodeBinarySnapshot(valid, {}).ok());
  Random rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    for (uint64_t i = 0; i <= rng.Uniform(3); ++i) {
      mutated = MutateBinary(mutated, rng);
    }
    auto result = core::DecodeBinarySnapshot(mutated, {});
    if (result.ok()) {
      EXPECT_EQ(result->dag().TopologicalOrder().size(),
                result->dag().node_count());
      for (const core::Strategy& s : core::AllStrategies()) {
        auto mode = result->CheckAccessByName("User", "obj", "read", s);
        if (!mode.ok()) break;
      }
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

/// Recomputes the graph section's checksum and the header's after a
/// mutation, so the forged bytes reach `Dag::FromCsr` instead of
/// failing the checksum. Header layout: magic (8), version (4), lsn
/// (8), strategy, mode, reserved (4), graph size (8) and crc (4) at
/// offsets 24 and 32, matrix size and crc, header crc (4) at 48.
constexpr size_t kSnapshotHeaderSize = 52;

size_t GraphSectionSize(const std::string& bytes) {
  uint64_t size = 0;
  for (size_t i = 0; i < 8; ++i) {
    size |= uint64_t{static_cast<unsigned char>(bytes[24 + i])} << (8 * i);
  }
  return static_cast<size_t>(size);
}

void Reseal(std::string& bytes) {
  const auto put32 = [&](size_t at, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  put32(32, Crc32(bytes.data() + kSnapshotHeaderSize, GraphSectionSize(bytes)));
  put32(48, Crc32(bytes.data(), kSnapshotHeaderSize - 4));
}

// Forged graph sections past the size at which `Dag::FromCsr` runs its
// checks concurrently: an id rewritten in range (the mirror breaks, and
// the name, fill and cycle passes run on the broken arrays alongside)
// or a byte rewritten anywhere in the section, checksums recomputed.
// Each decodes to a valid hierarchy or fails cleanly; under the
// sanitizer presets this covers the concurrent passes on hostile
// arrays.
TEST(LoaderFuzzTest, LargeForgedGraphSectionsFailCleanly) {
  Random rng(21);
  graph::ScaleLayeredDagOptions shape;
  shape.nodes = size_t{1} << 15;
  shape.layers = 8;
  auto dag = graph::GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  const size_t n = dag->node_count();
  const size_t edges = dag->edge_count();
  core::AccessControlSystem system(std::move(dag).value());
  ASSERT_TRUE(system.Grant(system.dag().name(0), "doc", "read").ok());
  const std::string valid = core::EncodeBinarySnapshot(system, /*lsn=*/7);
  ASSERT_TRUE(core::DecodeBinarySnapshot(valid, {}).ok());

  // The section ends with the child offsets and ids, then the parent
  // offsets and ids (graph/io.cc).
  const size_t dag_size = GraphSectionSize(valid);
  const size_t parent_ids = kSnapshotHeaderSize + dag_size - 4 * edges;
  const size_t child_ids = parent_ids - 8 * (n + 1) - 4 * edges;
  size_t rejected = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::string mutated = valid;
    const auto rewrite_id = [&](size_t ids) {
      const size_t at = ids + 4 * static_cast<size_t>(rng.Uniform(edges));
      const auto id = static_cast<uint32_t>(rng.Uniform(n));
      for (size_t i = 0; i < 4; ++i) {
        mutated[at + i] = static_cast<char>((id >> (8 * i)) & 0xFF);
      }
    };
    switch (trial % 3) {
      case 0:
        rewrite_id(child_ids);
        break;
      case 1:
        rewrite_id(parent_ids);
        break;
      default: {
        const size_t at =
            kSnapshotHeaderSize + static_cast<size_t>(rng.Uniform(dag_size));
        mutated[at] = static_cast<char>(rng.Uniform(256));
        break;
      }
    }
    Reseal(mutated);
    auto result = core::DecodeBinarySnapshot(mutated, {});
    if (result.ok()) {
      EXPECT_EQ(result->dag().TopologicalOrder().size(),
                result->dag().node_count());
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
      EXPECT_FALSE(result.status().message().empty());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 12u);
}

TEST(SerializationGuardTest, NamesWithWhitespaceRejectedBeforeWrite) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("ok", "has space").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  EXPECT_FALSE(graph::IsSerializableName("has space"));
  EXPECT_FALSE(graph::IsSerializableName(""));
  EXPECT_FALSE(graph::IsSerializableName("#comment"));
  EXPECT_TRUE(graph::IsSerializableName("Payroll_Team-2.0"));
  EXPECT_EQ(graph::ValidateSerializable(*dag).code(),
            StatusCode::kInvalidArgument);
  const std::string path = ::testing::TempDir() + "/ucr_guard_test.sdag";
  EXPECT_FALSE(graph::WriteEdgeListFile(*dag, path).ok());

  core::AccessControlSystem system(std::move(dag).value());
  EXPECT_FALSE(core::SaveSystemToFile(system, path).ok());
}

}  // namespace
}  // namespace ucr
