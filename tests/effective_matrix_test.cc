#include "paper/effective_matrix.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "paper/paper_example.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  // A second column exercises multi-column storage.
  EXPECT_TRUE(system.DenyAccess("S1", "obj", "write").ok());
  return system;
}

TEST(EffectiveMatrixTest, LookupMatchesOnDemandResolution) {
  AccessControlSystem system = MakePaperSystem();
  for (const char* mnemonic : {"D+LP-", "D-GMP+", "MP-", "P+"}) {
    auto matrix = EffectiveMatrix::Materialize(system, S(mnemonic));
    ASSERT_TRUE(matrix.ok());
    for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
      for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
        for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
          EXPECT_EQ(matrix->Lookup(v, o, r).value(),
                    system.CheckAccess(v, o, r, S(mnemonic)).value())
              << mnemonic << " subject " << system.dag().name(v);
        }
      }
    }
  }
}

TEST(EffectiveMatrixTest, EmptyColumnIsUniformDefaultDecision) {
  AccessControlSystem system = MakePaperSystem();
  // "write" on a brand-new object has no explicit labels anywhere —
  // intern it before materialization so it is in range.
  ASSERT_TRUE(system.Grant("S2", "other", "exec").ok());
  ASSERT_TRUE(system.Revoke("S2", "other", "exec").ok());
  auto matrix = EffectiveMatrix::Materialize(system, S("D+P-"));
  ASSERT_TRUE(matrix.ok());
  const acm::ObjectId other = system.eacm().FindObject("other").value();
  const acm::RightId exec = system.eacm().FindRight("exec").value();
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    EXPECT_EQ(matrix->Lookup(v, other, exec).value(), Mode::kPositive);
  }
  auto closed = EffectiveMatrix::Materialize(system, S("D-P+"));
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->Lookup(0, other, exec).value(), Mode::kNegative);
  auto no_default = EffectiveMatrix::Materialize(system, S("P+"));
  ASSERT_TRUE(no_default.ok());
  EXPECT_EQ(no_default->Lookup(0, other, exec).value(), Mode::kPositive);
}

TEST(EffectiveMatrixTest, StalenessTracksEpoch) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());
  EXPECT_TRUE(matrix->IsCurrentFor(system));
  ASSERT_TRUE(system.Grant("S6", "obj", "read").ok());
  EXPECT_FALSE(matrix->IsCurrentFor(system))
      << "the §5 self-maintainability problem: any update stales the "
         "whole materialization";
}

TEST(EffectiveMatrixTest, RefreshRebuildsOnlyTouchedColumns) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());

  // Touch only the (obj, write) column.
  ASSERT_TRUE(system.DenyAccess("S2", "obj", "write").ok());
  EXPECT_FALSE(matrix->IsCurrentFor(system));
  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u) << "only the touched column rebuilds";
  EXPECT_TRUE(matrix->IsCurrentFor(system));

  // The refreshed matrix answers like on-demand resolution.
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId write = system.eacm().FindRight("write").value();
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    EXPECT_EQ(matrix->Lookup(v, obj, write).value(),
              system.CheckAccess(v, obj, write, S("D+LP-")).value());
  }
}

TEST(EffectiveMatrixTest, RefreshPicksUpBrandNewColumns) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("LP-"));
  ASSERT_TRUE(matrix.ok());
  ASSERT_TRUE(system.Grant("S3", "newdoc", "read").ok());
  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 1u);
  const acm::ObjectId newdoc = system.eacm().FindObject("newdoc").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  EXPECT_EQ(matrix->Lookup(system.dag().FindNode("S4"), newdoc, read).value(),
            Mode::kPositive)
      << "S4 inherits S3's grant on the new column";
}

// Hierarchy edits stale the matrix via the dag's generation stamps
// (not the column epochs) and Refresh repairs them by re-resolving
// only the affected rows — the edited child and its descendants.
TEST(EffectiveMatrixTest, StalenessTracksHierarchyGeneration) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());
  EXPECT_TRUE(matrix->IsCurrentFor(system));
  // No column epoch moves, but User's ancestor set changed.
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  EXPECT_FALSE(matrix->IsCurrentFor(system));
}

TEST(EffectiveMatrixTest, RefreshRepairsAffectedRowsAfterMembershipEdit) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  const graph::NodeId user = system.dag().FindNode("User");
  ASSERT_EQ(matrix->Lookup(user, obj, read).value(), Mode::kNegative);

  // Detaching User from S5 flips User's decision; no rights changed,
  // so no whole column is rebuilt — only the affected rows.
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 0u) << "row-scoped repair, no column rebuild";
  EXPECT_TRUE(matrix->IsCurrentFor(system));
  // Every cell — affected rows included — matches on-demand resolution.
  for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
    for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
      for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
        EXPECT_EQ(matrix->Lookup(v, o, r).value(),
                  system.CheckAccess(v, o, r, S("D+LP-")).value())
            << system.dag().name(v);
      }
    }
  }
}

TEST(EffectiveMatrixTest, RefreshGrowsWithNewSubjects) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());
  const size_t subjects_before = matrix->subject_count();

  // A new hire under S2 inherits S2's '+' on (obj, read).
  ASSERT_TRUE(system.AddMembership("S2", "newhire").ok());
  EXPECT_FALSE(matrix->IsCurrentFor(system));
  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(matrix->IsCurrentFor(system));
  EXPECT_EQ(matrix->subject_count(), subjects_before + 1);

  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  const graph::NodeId hire = system.dag().FindNode("newhire");
  EXPECT_EQ(matrix->Lookup(hire, obj, read).value(), Mode::kPositive);
}

// Interleaved rights and hierarchy edits: one Refresh must repair the
// lapsed column wholesale and the affected rows of the current ones.
TEST(EffectiveMatrixTest, RefreshHandlesMixedRightsAndHierarchyEdits) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("D+LP-"));
  ASSERT_TRUE(matrix.ok());

  ASSERT_TRUE(system.DenyAccess("S2", "obj", "write").ok());
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  ASSERT_TRUE(system.AddMembership("S4", "newhire").ok());

  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u) << "only (obj, write) lapsed its epoch";
  EXPECT_TRUE(matrix->IsCurrentFor(system));
  for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
    for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
      for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
        EXPECT_EQ(matrix->Lookup(v, o, r).value(),
                  system.CheckAccess(v, o, r, S("D+LP-")).value())
            << system.dag().name(v);
      }
    }
  }
}

TEST(EffectiveMatrixTest, RefreshNoOpWhenCurrent) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("P-"));
  ASSERT_TRUE(matrix.ok());
  auto refreshed = matrix->Refresh(system);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
}

TEST(EffectiveMatrixTest, RejectsUnknownIds) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("P-"));
  ASSERT_TRUE(matrix.ok());
  EXPECT_FALSE(matrix->Lookup(999, 0, 0).ok());
  EXPECT_FALSE(matrix->Lookup(0, 99, 0).ok());
  EXPECT_FALSE(matrix->Lookup(0, 0, 99).ok());
}

TEST(EffectiveMatrixTest, MemoryScalesWithColumns) {
  AccessControlSystem system = MakePaperSystem();
  auto matrix = EffectiveMatrix::Materialize(system, S("P-"));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->column_count(), 2u);  // (obj,read) and (obj,write).
  EXPECT_GT(matrix->MemoryBytes(), 0u);
  EXPECT_EQ(matrix->subject_count(), system.dag().node_count());
}

}  // namespace
}  // namespace ucr::core
