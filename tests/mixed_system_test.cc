#include "paper/mixed_system.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "graph/io.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

MixedAccessControlSystem MakeStore() {
  auto subjects = graph::FromEdgeListText(
      "edge company engineering\n"
      "edge company legal\n"
      "edge engineering eve\n"
      "edge legal lara\n");
  auto objects = graph::FromEdgeListText(
      "edge drive eng-docs\n"
      "edge eng-docs design.md\n"
      "edge drive legal-docs\n"
      "edge legal-docs contract.md\n");
  EXPECT_TRUE(subjects.ok());
  EXPECT_TRUE(objects.ok());
  return MixedAccessControlSystem(std::move(subjects).value(),
                                  std::move(objects).value());
}

TEST(MixedSystemTest, GrantAndCheck) {
  MixedAccessControlSystem store = MakeStore();
  ASSERT_TRUE(store.Grant("engineering", "eng-docs", "read").ok());
  ASSERT_TRUE(store.DenyAccess("company", "drive", "read").ok());
  store.SetStrategy(S("LP-"));
  // eve's nearest authorization for design.md is the engineering
  // grant at joint distance 2 (vs the company denial at 4).
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "read").value(),
            Mode::kPositive);
  // lara only has the company-wide denial.
  EXPECT_EQ(store.CheckAccess("lara", "contract.md", "read").value(),
            Mode::kNegative);
}

TEST(MixedSystemTest, StrategySwitchChangesDecision) {
  MixedAccessControlSystem store = MakeStore();
  ASSERT_TRUE(store.Grant("engineering", "eng-docs", "read").ok());
  ASSERT_TRUE(store.DenyAccess("company", "drive", "read").ok());
  store.SetStrategy(S("LP-"));
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "read").value(),
            Mode::kPositive);
  store.SetStrategy(S("GP-"));  // Most general: the company denial.
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "read").value(),
            Mode::kNegative);
}

TEST(MixedSystemTest, UnknownNamesReported) {
  MixedAccessControlSystem store = MakeStore();
  EXPECT_EQ(store.Grant("ghost", "drive", "read").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.Grant("eve", "ghost", "read").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.CheckAccess("ghost", "drive", "read").status().code(),
            StatusCode::kNotFound);
}

TEST(MixedSystemTest, UnknownRightResolvesFromDefaults) {
  MixedAccessControlSystem store = MakeStore();
  store.SetStrategy(S("D+P-"));
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "never-granted").value(),
            Mode::kPositive);
  store.SetStrategy(S("D-P+"));
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "never-granted").value(),
            Mode::kNegative);
}

TEST(MixedSystemTest, ContradictionRejectedRevokeWorks) {
  MixedAccessControlSystem store = MakeStore();
  ASSERT_TRUE(store.Grant("engineering", "eng-docs", "read").ok());
  EXPECT_EQ(store.DenyAccess("engineering", "eng-docs", "read").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.Grant("engineering", "eng-docs", "read").ok())
      << "idempotent re-grant";
  EXPECT_TRUE(store.Revoke("engineering", "eng-docs", "read").value());
  EXPECT_FALSE(store.Revoke("engineering", "eng-docs", "read").value());
  EXPECT_TRUE(store.DenyAccess("engineering", "eng-docs", "read").ok())
      << "after revoke, the opposite mode is legal";
  EXPECT_EQ(store.authorization_count(), 1u);
}

TEST(MixedSystemTest, RightsAreIndependentColumns) {
  MixedAccessControlSystem store = MakeStore();
  ASSERT_TRUE(store.Grant("company", "drive", "read").ok());
  ASSERT_TRUE(store.DenyAccess("company", "drive", "write").ok());
  store.SetStrategy(S("LP-"));
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "read").value(),
            Mode::kPositive);
  EXPECT_EQ(store.CheckAccess("eve", "design.md", "write").value(),
            Mode::kNegative);
}

TEST(MixedSystemTest, StorageRoundTrip) {
  MixedAccessControlSystem original = MakeStore();
  ASSERT_TRUE(original.Grant("engineering", "eng-docs", "read").ok());
  ASSERT_TRUE(original.DenyAccess("company", "drive", "read").ok());
  ASSERT_TRUE(original.Grant("legal", "legal-docs", "write").ok());
  original.SetStrategy(S("D-LMP+"));

  const std::string text = SaveMixedSystemToText(original);
  auto loaded = LoadMixedSystemFromText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->strategy().ToMnemonic(), "D-LMP+");
  EXPECT_EQ(loaded->authorization_count(), 3u);
  for (const char* who : {"eve", "lara"}) {
    for (const char* what : {"design.md", "contract.md"}) {
      for (const char* how : {"read", "write"}) {
        for (const Strategy& s : AllStrategies()) {
          EXPECT_EQ(loaded->CheckAccess(who, what, how, s).value(),
                    original.CheckAccess(who, what, how, s).value())
              << who << " " << what << " " << how << " " << s.ToMnemonic();
        }
      }
    }
  }
  // Byte-stable second round trip.
  EXPECT_EQ(SaveMixedSystemToText(*loaded), text);
}

TEST(MixedSystemTest, LoaderRejectsMalformedInput) {
  EXPECT_FALSE(LoadMixedSystemFromText("").ok());
  EXPECT_FALSE(LoadMixedSystemFromText("[subjects]\nnode a\n").ok());
  EXPECT_FALSE(LoadMixedSystemFromText(
                   "[subjects]\nnode a\n[objects]\nnode o\n"
                   "[authorizations]\nauth a o\n")
                   .ok());
  EXPECT_FALSE(LoadMixedSystemFromText(
                   "[subjects]\nnode a\n[objects]\nnode o\n"
                   "[authorizations]\nauth a o read *\n")
                   .ok());
  EXPECT_FALSE(LoadMixedSystemFromText(
                   "[subjects]\nnode a\n[objects]\nnode o\n"
                   "[authorizations]\nauth ghost o read +\n")
                   .ok());
}

}  // namespace
}  // namespace ucr::core
