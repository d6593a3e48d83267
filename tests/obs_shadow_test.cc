// Tests for online shadow verification (src/obs/shadow.h +
// core::ShadowVerifyDecision, DESIGN.md §9): sampling cadence, the
// agreeing steady state (checks counted, zero mismatches), and — via
// the perturbed-oracle hook — that a genuine fast/classic divergence
// is counted, retained with both Fig. 4 derivations, and audit-logged,
// on the ResolveAccess path and on the snapshot serving path.

#include "obs/shadow.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

TEST(ObsShadowTest, DisabledBuildNeverShadows) {
  ShadowVerifier::Global().SetInterval(1);
  EXPECT_FALSE(ShadowVerifier::ShouldShadow());
  ShadowVerifier::Global().SetInterval(0);
}

#else

using core::ParseStrategy;
using core::ResolveAccess;
using core::ResolveAccessOptions;

/// Fresh Fig. 1 fixture: the `user`/obj/read query the paper walks
/// through, against the hierarchy and matrix of the worked example.
struct Fixture {
  Fixture() : ex(core::MakePaperExample()) {}
  core::PaperExample ex;
};

/// The ways a fast-path decision reaches the oracle: a direct
/// ResolveAccess, and the serving path — a decision-table miss on a
/// fresh epoch snapshot, its sink bag composed from the reachability
/// index or propagated over an extraction.
enum class Path { kResolveAccess, kSnapshotIndexed, kSnapshotExtracted };

/// Runs one fast-path query with shadowing forced on for exactly that
/// query, then disables it again. A snapshot path also re-reads the
/// triple, a decision-table hit, which has no derivation to shadow.
acm::Mode ResolveShadowed(Fixture& f, const core::Strategy& strategy,
                          Path path = Path::kResolveAccess) {
  std::unique_ptr<const core::HierarchySnapshot> snapshot;
  if (path != Path::kResolveAccess) {
    snapshot = core::BuildSnapshot(
        f.ex.dag, f.ex.eacm, strategy, core::PropagationMode::kBoth,
        /*epoch=*/1, /*previous=*/nullptr, /*resolution_capacity=*/64,
        path == Path::kSnapshotIndexed
            ? graph::ReachabilityIndex::Build(f.ex.dag, f.ex.eacm.epoch(),
                                              f.ex.eacm.ReachRows())
            : nullptr);
  }
  ShadowVerifier::Global().SetInterval(1);
  StatusOr<acm::Mode> mode = Status::Internal("unset");
  if (path == Path::kResolveAccess) {
    ResolveAccessOptions options;
    options.use_fast_path = true;
    mode = ResolveAccess(f.ex.dag, f.ex.eacm, f.ex.user, f.ex.obj, f.ex.read,
                         strategy.Canonical(), options);
  } else {
    mode = core::SnapshotResolveAccess(*snapshot, f.ex.user, f.ex.obj,
                                       f.ex.read, strategy);
    const auto hit = core::SnapshotResolveAccess(*snapshot, f.ex.user,
                                                 f.ex.obj, f.ex.read,
                                                 strategy);
    EXPECT_TRUE(hit.ok() && mode.ok() && *hit == *mode);
  }
  ShadowVerifier::Global().SetInterval(0);
  EXPECT_TRUE(mode.ok());
  return *mode;
}

TEST(ObsShadowTest, SamplesEveryNthQueryPerThread) {
  ShadowVerifier::Global().SetInterval(1);
  ASSERT_TRUE(ShadowVerifier::ShouldShadow());  // Reset countdown.
  ShadowVerifier::Global().SetInterval(3);
  const std::vector<bool> expected = {false, false, true, false, false, true};
  for (const bool want : expected) {
    EXPECT_EQ(ShadowVerifier::ShouldShadow(), want);
  }
  ShadowVerifier::Global().SetInterval(0);
  EXPECT_FALSE(ShadowVerifier::ShouldShadow());
}

TEST(ObsShadowTest, AgreeingEnginesCountChecksAndNoMismatches) {
  ShadowVerifier::Global().Clear();
  Fixture f;
  for (const Path path : {Path::kResolveAccess, Path::kSnapshotIndexed,
                          Path::kSnapshotExtracted}) {
    for (const char* mnemonic : {"D+LP-", "P+", "N-", "D-GN+"}) {
      ResolveShadowed(f, ParseStrategy(mnemonic).value(), path);
    }
  }
  EXPECT_EQ(ShadowVerifier::Global().checks_total(), 12u);
  EXPECT_EQ(ShadowVerifier::Global().mismatch_total(), 0u);
  EXPECT_TRUE(ShadowVerifier::Global().RecentMismatches().empty());
}

TEST(ObsShadowTest, PerturbedOracleProvesDivergenceIsCaught) {
  for (const Path path : {Path::kResolveAccess, Path::kSnapshotIndexed,
                          Path::kSnapshotExtracted}) {
    SCOPED_TRACE(static_cast<int>(path));
    ShadowVerifier::Global().Clear();
    Fixture f;
    const core::Strategy strategy = ParseStrategy("D+LP-").value();

    ShadowVerifier::Global().SetPerturbOracleForTesting(true);
    const acm::Mode fast_mode = ResolveShadowed(f, strategy, path);
    ShadowVerifier::Global().SetPerturbOracleForTesting(false);

    EXPECT_EQ(ShadowVerifier::Global().checks_total(), 1u);
    ASSERT_EQ(ShadowVerifier::Global().mismatch_total(), 1u);
    const std::vector<ShadowVerifier::Mismatch> dump =
        ShadowVerifier::Global().RecentMismatches();
    ASSERT_EQ(dump.size(), 1u);
    const ShadowVerifier::Mismatch& m = dump[0];
    EXPECT_EQ(m.subject, f.ex.user);
    EXPECT_EQ(m.object, f.ex.obj);
    EXPECT_EQ(m.right, f.ex.read);
    EXPECT_EQ(m.strategy_index, strategy.Canonical().CanonicalIndex());
    EXPECT_EQ(m.fast.granted, fast_mode == acm::Mode::kPositive);
    EXPECT_NE(m.fast.granted, m.oracle.granted);
    // Both derivations are retained so the dump alone explains the
    // divergence (compact Fig. 4 form: counters, Auth set, line).
    const std::string fast = FormatFig4Compact(m.fast);
    const std::string oracle = FormatFig4Compact(m.oracle);
    EXPECT_NE(fast.find("line="), std::string::npos) << fast;
    EXPECT_NE(oracle.find("line="), std::string::npos) << oracle;
  }
}

TEST(ObsShadowTest, MismatchEmitsAuditEventWithBothDerivations) {
  ShadowVerifier::Global().Clear();
  std::vector<std::string> lines;
  class VectorSink : public AuditSink {
   public:
    explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
    void Write(std::string_view line) override { out_->emplace_back(line); }

   private:
    std::vector<std::string>* out_;
  };
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  Fixture f;
  ShadowVerifier::Global().SetPerturbOracleForTesting(true);
  ResolveShadowed(f, ParseStrategy("D+LP-").value());
  ShadowVerifier::Global().SetPerturbOracleForTesting(false);
  AuditLog::Global().Flush();
  AuditLog::Global().Stop();

  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"shadow_mismatch\"") == std::string::npos) {
      continue;
    }
    found = true;
    EXPECT_TRUE(JsonLooksValid(line)) << line;
    EXPECT_NE(line.find("fast:"), std::string::npos) << line;
    EXPECT_NE(line.find("oracle:"), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no shadow_mismatch audit event was written";
}

TEST(ObsShadowTest, MismatchRingIsBounded) {
  ShadowVerifier::Global().Clear();
  for (uint64_t i = 0; i < 3 * ShadowVerifier::kMismatchRingCapacity; ++i) {
    ShadowVerifier::Mismatch m;
    m.subject = static_cast<uint32_t>(i);
    ShadowVerifier::Global().RecordMismatch(m);
  }
  const auto dump = ShadowVerifier::Global().RecentMismatches();
  EXPECT_EQ(dump.size(), ShadowVerifier::kMismatchRingCapacity);
  EXPECT_EQ(ShadowVerifier::Global().mismatch_total(),
            3 * ShadowVerifier::kMismatchRingCapacity);
  // The retained window is the most recent capacity-many mismatches.
  for (const auto& m : dump) {
    EXPECT_GE(m.subject, 2 * ShadowVerifier::kMismatchRingCapacity);
  }
  ShadowVerifier::Global().Clear();
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
