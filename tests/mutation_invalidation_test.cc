// The write path's affected sets (DESIGN.md §10): a hierarchy edit
// reports exactly the subjects whose ancestor sets it changed, a
// batch coalesces them, and the next published snapshot serves the
// edited subjects' new decisions — never a memoized stale one. Covers
// ApplyMutations' coalescing and partial-failure contract, the
// `invalidated_entries` report, and the write-path observability
// (mutation counters, audit events carrying affected-set size). The
// exact carry-over scoping of the snapshot's decision table is
// asserted in snapshot_differential_test.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "graph/dag.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "paper/paper_example.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

/// The paper's Fig. 1 fixture wrapped in a system (same labels the
/// system_test suite uses).
AccessControlSystem MakePaperSystem(SystemOptions options = {}) {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag), options);
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  return system;
}

// The snapshot's decision table is the one memo: a decision stored
// before an edit must not be carried into the epoch the edit
// publishes. The facade (unmemoized) and the snapshot path must agree
// on every step.
TEST(MutationInvalidationTest, EditedSubjectIsReResolvedNotServedStale) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  system.EnableSnapshotReads();
  const auto expect_user = [&](Mode want) {
    EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(), want);
    EXPECT_EQ(system.CheckAccessSnapshotByName("User", "obj", "read").value(),
              want);
  };
  // Warm the table with the pre-edit decision (denied via S5).
  expect_user(Mode::kNegative);
  // Detach User from S5's group: the denial no longer reaches User.
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  expect_user(Mode::kPositive);
  // And the reverse edit restores the denial — no stale memo either
  // way.
  ASSERT_TRUE(system.AddMembership("S5", "User").ok());
  expect_user(Mode::kNegative);
}

TEST(MutationInvalidationTest, ApplyMutationsCoalescesAffectedSets) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  ASSERT_TRUE(system.CheckAccessByName("User", "obj", "read").ok());

  using Op = AccessControlSystem::MutationOp;
  const std::vector<Op> ops = {
      Op::Grant("S3", "obj", "write"),
      Op::AddMember("S2", "contractor"),
      Op::AddMember("S3", "contractor"),
      Op::RemoveMember("S5", "User"),
  };
  AccessControlSystem::MutationBatchStats stats;
  ASSERT_TRUE(system.ApplyMutations(ops, &stats).ok());
  EXPECT_EQ(stats.applied, ops.size());

  // The coalesced affected set: contractor (twice edited, reported
  // once) and User — ascending, unique.
  std::vector<graph::NodeId> expected = {
      system.dag().FindNode("contractor"), system.dag().FindNode("User")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(stats.affected, expected);

  // The batch's effects all landed.
  EXPECT_TRUE(system.dag().HasEdge(system.dag().FindNode("S2"),
                                   system.dag().FindNode("contractor")));
  EXPECT_EQ(system.CheckAccessByName("contractor", "obj", "read").value(),
            Mode::kPositive);  // Inherits S2's grant.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);  // S5's denial detached.
}

TEST(MutationInvalidationTest, ApplyMutationsStopsAtFirstFailureButPublishes) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  system.EnableSnapshotReads();
  // Warm a decision that op #1 affects, to prove the publication that
  // follows the failed batch does not carry it.
  EXPECT_EQ(system.CheckAccessSnapshotByName("User", "obj", "read").value(),
            Mode::kNegative);

  using Op = AccessControlSystem::MutationOp;
  const std::vector<Op> ops = {
      Op::RemoveMember("S5", "User"),
      Op::AddMember("User", "User"),  // Self-loop: fails.
      Op::Grant("S3", "obj", "write"),  // Never reached.
  };
  AccessControlSystem::MutationBatchStats stats;
  const Status status = system.ApplyMutations(ops, &stats);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.affected,
            std::vector<graph::NodeId>{system.dag().FindNode("User")});
  // Op #1 stayed applied and was published: the snapshot query
  // reflects the new hierarchy, not the warm pre-batch decision.
  EXPECT_EQ(system.CheckAccessSnapshotByName("User", "obj", "read").value(),
            Mode::kPositive);
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
  // Op #3 was never applied.
  EXPECT_FALSE(system.eacm().FindRight("write").ok());
}

// `invalidated_entries` reports the decision-table entries the batch's
// publication did not carry: User's one warm entry here. Without
// snapshot reads there is no memo to drop from.
TEST(MutationInvalidationTest, InvalidatedEntriesCountsUncarriedDecisions) {
  using Op = AccessControlSystem::MutationOp;
  const std::vector<Op> ops = {Op::RemoveMember("S5", "User")};

  AccessControlSystem plain = MakePaperSystem();
  plain.SetStrategy(S("D+LP-"));
  ASSERT_TRUE(plain.CheckAccessByName("User", "obj", "read").ok());
  AccessControlSystem::MutationBatchStats plain_stats;
  ASSERT_TRUE(plain.ApplyMutations(ops, &plain_stats).ok());
  EXPECT_EQ(plain_stats.invalidated_entries, 0u);

  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  system.EnableSnapshotReads();
  // Warm User (affected by the edit) and S5 (not affected).
  ASSERT_TRUE(system.CheckAccessSnapshotByName("User", "obj", "read").ok());
  ASSERT_TRUE(system.CheckAccessSnapshotByName("S5", "obj", "read").ok());
  AccessControlSystem::MutationBatchStats stats;
  ASSERT_TRUE(system.ApplyMutations(ops, &stats).ok());
  EXPECT_EQ(stats.invalidated_entries, 1u);
  EXPECT_EQ(system.snapshots()->Pin()->resolution.size(), 1u)
      << "S5's decision must carry into the new epoch";
}

// The partial-failure report names the failing position and kind —
// both in the stats (machine-readable resume point, and the boundary
// the WAL commit record persists) and in the status message itself.
TEST(MutationInvalidationTest, BatchFailureNamesIndexAndKind) {
  AccessControlSystem system = MakePaperSystem();
  using Op = AccessControlSystem::MutationOp;
  AccessControlSystem::MutationBatchStats stats;

  // Success: no failed index.
  const std::vector<Op> ok_ops = {Op::Grant("S3", "obj", "write")};
  ASSERT_TRUE(system.ApplyMutations(ok_ops, &stats).ok());
  EXPECT_EQ(stats.failed_index, AccessControlSystem::MutationBatchStats::kNone);

  // Failure at op 2: failed_index == applied, and the message carries
  // the index, the op kind, and the underlying cause.
  const std::vector<Op> ops = {
      Op::Grant("S3", "doc", "read"),
      Op::Deny("S4", "doc", "write"),
      Op::AddMember("S1", "S1"),  // Self-loop: fails.
      Op::Grant("S3", "doc", "own"),
  };
  const Status status = system.ApplyMutations(ops, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.failed_index, 2u);
  EXPECT_EQ(stats.failed_index, stats.applied);
  EXPECT_NE(status.message().find("op 2 (add_membership)"),
            std::string::npos);
  EXPECT_NE(status.message().find("self-loop"), std::string::npos);
}

#if UCR_METRICS_ENABLED

TEST(MutationInvalidationTest, WritePathMetricsAndAuditAffectedSize) {
  obs::Counter& mutations = obs::Registry::Global().GetCounter(
      "ucr_mutations_total",
      "Hierarchy mutations applied (membership edge inserts/removals)");
  const uint64_t mutations_before = mutations.Value();

  // Capture the audit stream around one membership edit.
  struct VectorSink : obs::AuditSink {
    explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
    void Write(std::string_view line) override { out_->emplace_back(line); }
    std::vector<std::string>* out_;
  };
  std::vector<std::string> lines;
  obs::AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(obs::AuditLog::Global().Start(std::move(options)));

  AccessControlSystem system = MakePaperSystem();
  // S2 -> User exists; removing it affects User only (User is a sink),
  // so the audit event's value — the affected-set size — is 1.
  ASSERT_TRUE(system.RemoveMembership("S2", "User").ok());
  obs::AuditLog::Global().Stop();

  EXPECT_EQ(mutations.Value(), mutations_before + 1);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("remove_member") == std::string::npos) continue;
    EXPECT_NE(line.find("S2 -> User"), std::string::npos) << line;
    EXPECT_NE(line.find("\"value\":1"), std::string::npos) << line;
    found = true;
  }
  EXPECT_TRUE(found) << "no remove_member audit event captured";
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::core
