#include "core/storage.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "paper/paper_example.h"
#include "util/fs.h"

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

TEST(StorageTest, RoundTripPreservesEverything) {
  AccessControlSystem original = MakePaperSystem();
  const std::string text = SaveSystemToText(original);

  auto loaded = LoadSystemFromText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->dag().node_count(), original.dag().node_count());
  EXPECT_EQ(loaded->dag().edge_count(), original.dag().edge_count());
  EXPECT_EQ(loaded->eacm().size(), original.eacm().size());
  EXPECT_EQ(loaded->strategy().ToMnemonic(), "D+LMP-");

  // Node ids survive (name order is pinned by the format).
  for (graph::NodeId v = 0; v < original.dag().node_count(); ++v) {
    EXPECT_EQ(loaded->dag().name(v), original.dag().name(v));
  }

  // Every effective decision survives, under every strategy.
  for (const Strategy& s : AllStrategies()) {
    EXPECT_EQ(loaded->CheckAccessByName("User", "obj", "read", s).value(),
              original.CheckAccessByName("User", "obj", "read", s).value())
        << s.ToMnemonic();
  }
}

TEST(StorageTest, SecondRoundTripIsByteIdentical) {
  AccessControlSystem original = MakePaperSystem();
  const std::string once = SaveSystemToText(original);
  auto loaded = LoadSystemFromText(once);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(SaveSystemToText(*loaded), once);
}

// A system file that passed through a Windows editor (or a checkout
// with autocrlf) gains \r\n line endings; the loader must parse it
// identically — in particular the trailing mode field of each auth
// line must not absorb the \r.
TEST(StorageTest, LoadsWindowsLineEndings) {
  AccessControlSystem original = MakePaperSystem();
  std::string text = SaveSystemToText(original);
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }

  auto loaded = LoadSystemFromText(crlf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dag().node_count(), original.dag().node_count());
  EXPECT_EQ(loaded->eacm().size(), original.eacm().size());
  EXPECT_EQ(loaded->strategy().ToMnemonic(), "D+LMP-");
  for (const Strategy& s : AllStrategies()) {
    EXPECT_EQ(loaded->CheckAccessByName("User", "obj", "read", s).value(),
              original.CheckAccessByName("User", "obj", "read", s).value())
        << s.ToMnemonic();
  }
}

// Save∘Load property over the whole strategy space: every one of the
// 48 canonical mnemonics survives a round trip, and the loaded system
// reproduces every subject's effective decision under its configured
// strategy.
TEST(StorageTest, RoundTripPreservesAllStrategyMnemonics) {
  for (const Strategy& strategy : AllStrategies()) {
    AccessControlSystem original = MakePaperSystem();
    original.SetStrategy(strategy);
    auto loaded = LoadSystemFromText(SaveSystemToText(original));
    ASSERT_TRUE(loaded.ok()) << strategy.ToMnemonic();
    EXPECT_EQ(loaded->strategy().ToMnemonic(), strategy.ToMnemonic());
    for (graph::NodeId v = 0; v < original.dag().node_count(); ++v) {
      const std::string& name = original.dag().name(v);
      EXPECT_EQ(loaded->CheckAccessByName(name, "obj", "read").value(),
                original.CheckAccessByName(name, "obj", "read").value())
          << strategy.ToMnemonic() << " subject " << name;
    }
  }
}

TEST(StorageTest, MissingSectionsRejected) {
  EXPECT_FALSE(LoadSystemFromText("strategy P-\n").ok());
  EXPECT_FALSE(LoadSystemFromText("[hierarchy]\nnode a\n").ok());
  EXPECT_FALSE(
      LoadSystemFromText("[authorizations]\n[hierarchy]\nnode a\n").ok());
}

TEST(StorageTest, BadStrategyRejectedWithLineNumber) {
  auto result = LoadSystemFromText(
      "strategy D*LP-\n[hierarchy]\nnode a\n[authorizations]\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(StorageTest, StrategyLineIsOptional) {
  auto result = LoadSystemFromText(
      "[hierarchy]\nedge g u\n[authorizations]\nauth g doc read +\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Falls back to the options' default strategy (P-).
  EXPECT_EQ(result->strategy().ToMnemonic(), "P-");
  EXPECT_EQ(result->CheckAccessByName("u", "doc", "read").value(),
            Mode::kPositive);
}

TEST(StorageTest, GarbagePreambleRejected) {
  EXPECT_FALSE(LoadSystemFromText("bogus line\n[hierarchy]\n"
                                  "[authorizations]\n")
                   .ok());
}

TEST(StorageTest, CorruptAuthorizationsSurfaceSection) {
  auto result = LoadSystemFromText(
      "[hierarchy]\nedge g u\n[authorizations]\nauth ghost doc read +\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("authorizations"),
            std::string::npos);
}

// The torn-save regression: a save that dies mid-write (ENOSPC, crash)
// must leave the previous file byte-identical, not half-overwritten.
// The injected limit makes WriteFileAtomic fail after a few bytes of
// the *temp* file — the target must never have been touched.
TEST(StorageTest, FailedSaveLeavesOldFileIntact) {
  AccessControlSystem original = MakePaperSystem();
  const std::string path = ::testing::TempDir() + "/ucr_atomic_save_test.ucr";
  ASSERT_TRUE(SaveSystemToFile(original, path).ok());
  auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  // Grow the system so a successful second save WOULD change the file.
  ASSERT_TRUE(original.Grant("S1", "obj2", "write").ok());

  SetAtomicWriteLimitForTesting(7);  // Simulated device-full mid-write.
  const Status failed = SaveSystemToFile(original, path);
  SetAtomicWriteLimitForTesting(-1);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("No space left"), std::string::npos);

  // Old contents survive bit-for-bit and still load.
  auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_TRUE(LoadSystemFromFile(path).ok());

  // And with the device "fixed", the same save goes through.
  ASSERT_TRUE(SaveSystemToFile(original, path).ok());
  auto healed = LoadSystemFromFile(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->eacm().size(), 4u);
  std::remove(path.c_str());
}

TEST(StorageTest, FailedSaveToFreshPathCreatesNothing) {
  AccessControlSystem original = MakePaperSystem();
  const std::string path =
      ::testing::TempDir() + "/ucr_atomic_save_fresh.ucr";
  std::remove(path.c_str());
  SetAtomicWriteLimitForTesting(0);
  EXPECT_FALSE(SaveSystemToFile(original, path).ok());
  SetAtomicWriteLimitForTesting(-1);
  // Neither the target nor temp debris with the target's name exists.
  EXPECT_EQ(LoadSystemFromFile(path).status().code(), StatusCode::kNotFound);
}

// Two threads saving the same path concurrently must each get a
// private temp file (unique per call, not just per process): if they
// shared one, a rename could publish a half-overwritten mix. Whatever
// the interleaving, the target is always one writer's complete bytes.
TEST(StorageTest, ConcurrentAtomicSavesNeverMixContents) {
  const std::string path =
      ::testing::TempDir() + "/ucr_atomic_concurrent.ucr";
  std::remove(path.c_str());
  const std::string a(8192, 'a');
  const std::string b(8192, 'b');
  constexpr int kRounds = 50;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) ASSERT_TRUE(WriteFileAtomic(path, a).ok());
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) ASSERT_TRUE(WriteFileAtomic(path, b).ok());
  });
  ta.join();
  tb.join();
  auto final_bytes = ReadFileToString(path);
  ASSERT_TRUE(final_bytes.ok());
  EXPECT_TRUE(*final_bytes == a || *final_bytes == b)
      << "target holds a mix of two writers' contents";
  std::remove(path.c_str());
}

TEST(StorageTest, FileRoundTrip) {
  AccessControlSystem original = MakePaperSystem();
  const std::string path = ::testing::TempDir() + "/ucr_storage_test.ucr";
  ASSERT_TRUE(SaveSystemToFile(original, path).ok());
  auto loaded = LoadSystemFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->eacm().size(), 3u);
  std::remove(path.c_str());
  EXPECT_EQ(LoadSystemFromFile(path).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ucr::core
