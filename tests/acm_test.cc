#include "acm/acm.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "acm/mode.h"
#include "graph/dag.h"
#include "util/random.h"

namespace ucr::acm {
namespace {

graph::Dag TwoNodeDag() {
  graph::DagBuilder b;
  EXPECT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  EXPECT_TRUE(dag.ok());
  return std::move(dag).value();
}

TEST(ModeTest, CharConversions) {
  EXPECT_EQ(ModeToChar(Mode::kPositive), '+');
  EXPECT_EQ(ModeToChar(Mode::kNegative), '-');
  EXPECT_EQ(PropagatedModeToChar(PropagatedMode::kDefault), 'd');
  EXPECT_EQ(ModeFromChar('+'), Mode::kPositive);
  EXPECT_EQ(ModeFromChar('-'), Mode::kNegative);
  EXPECT_EQ(ModeFromChar('d'), std::nullopt);
  EXPECT_EQ(ModeFromChar('x'), std::nullopt);
}

TEST(ModeTest, NegateAndWiden) {
  EXPECT_EQ(Negate(Mode::kPositive), Mode::kNegative);
  EXPECT_EQ(Negate(Mode::kNegative), Mode::kPositive);
  EXPECT_EQ(ToPropagated(Mode::kPositive), PropagatedMode::kPositive);
  EXPECT_EQ(ToPropagated(Mode::kNegative), PropagatedMode::kNegative);
}

TEST(ExplicitAcmTest, InterningIsIdempotent) {
  ExplicitAcm eacm;
  auto o1 = eacm.InternObject("doc");
  auto o2 = eacm.InternObject("doc");
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  EXPECT_EQ(eacm.object_count(), 1u);
  EXPECT_EQ(eacm.object_name(*o1), "doc");
}

TEST(ExplicitAcmTest, FindMissReturnsNotFound) {
  ExplicitAcm eacm;
  EXPECT_EQ(eacm.FindObject("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(eacm.FindRight("ghost").status().code(), StatusCode::kNotFound);
}

TEST(ExplicitAcmTest, SetGetErase) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  EXPECT_EQ(eacm.Get(3, o, r), std::nullopt);
  ASSERT_TRUE(eacm.Set(3, o, r, Mode::kNegative).ok());
  EXPECT_EQ(eacm.Get(3, o, r), Mode::kNegative);
  EXPECT_EQ(eacm.size(), 1u);
  EXPECT_TRUE(eacm.Erase(3, o, r));
  EXPECT_FALSE(eacm.Erase(3, o, r));
  EXPECT_EQ(eacm.Get(3, o, r), std::nullopt);
}

TEST(ExplicitAcmTest, ContradictionRejectedDuplicateIgnored) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());
  EXPECT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());  // Same mode: OK.
  EXPECT_EQ(eacm.Set(1, o, r, Mode::kNegative).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(eacm.Get(1, o, r), Mode::kPositive);
}

TEST(ExplicitAcmTest, OverwriteReplaces) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());
  eacm.Overwrite(1, o, r, Mode::kNegative);
  EXPECT_EQ(eacm.Get(1, o, r), Mode::kNegative);
}

TEST(ExplicitAcmTest, EpochAdvancesOnMutation) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  const uint64_t e0 = eacm.epoch();
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());
  const uint64_t e1 = eacm.epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());  // No-op...
  EXPECT_EQ(eacm.epoch(), e1);                           // ...same epoch.
  eacm.Erase(1, o, r);
  EXPECT_GT(eacm.epoch(), e1);
}

TEST(ExplicitAcmTest, ExtractLabelsFiltersByObjectAndRight) {
  ExplicitAcm eacm;
  const ObjectId doc = eacm.InternObject("doc").value();
  const ObjectId img = eacm.InternObject("img").value();
  const RightId read = eacm.InternRight("read").value();
  const RightId write = eacm.InternRight("write").value();
  ASSERT_TRUE(eacm.Set(0, doc, read, Mode::kPositive).ok());
  ASSERT_TRUE(eacm.Set(1, doc, write, Mode::kNegative).ok());
  ASSERT_TRUE(eacm.Set(2, img, read, Mode::kNegative).ok());

  const auto labels = eacm.ExtractLabels(4, doc, read);
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0], Mode::kPositive);
  EXPECT_EQ(labels[1], std::nullopt);  // Different right.
  EXPECT_EQ(labels[2], std::nullopt);  // Different object.
  EXPECT_EQ(labels[3], std::nullopt);  // Unlabeled.
}

TEST(ExplicitAcmTest, CountLabels) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(0, o, r, Mode::kPositive).ok());
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kPositive).ok());
  ASSERT_TRUE(eacm.Set(2, o, r, Mode::kNegative).ok());
  const auto counts = eacm.CountLabels(o, r);
  EXPECT_EQ(counts.positive, 2u);
  EXPECT_EQ(counts.negative, 1u);
}

TEST(ExplicitAcmTest, SortedEntriesAreOrdered) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(5, o, r, Mode::kPositive).ok());
  ASSERT_TRUE(eacm.Set(1, o, r, Mode::kNegative).ok());
  ASSERT_TRUE(eacm.Set(3, o, r, Mode::kPositive).ok());
  const auto entries = eacm.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].subject, 1u);
  EXPECT_EQ(entries[1].subject, 3u);
  EXPECT_EQ(entries[2].subject, 5u);
}

TEST(ExplicitAcmTest, EraseMovesTheLastEntryIntoTheHole) {
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  for (graph::NodeId s : {4u, 9u, 2u, 7u}) {
    ASSERT_TRUE(eacm.Set(s, o, r, Mode::kPositive).ok());
  }
  ASSERT_TRUE(eacm.Erase(9, o, r));
  std::vector<graph::NodeId> order;
  for (const auto& e : eacm.Column(o, r)) order.push_back(e.subject);
  EXPECT_EQ(order, (std::vector<graph::NodeId>{4, 7, 2}));
  EXPECT_FALSE(eacm.Get(9, o, r).has_value());
  EXPECT_EQ(eacm.Get(7, o, r), Mode::kPositive);
  EXPECT_FALSE(eacm.Erase(9, o, r));
  EXPECT_EQ(eacm.size(), 3u);
}

/// Everything a copy of the matrix must keep while the original
/// mutates: every entry, each column's order and epoch, the counters.
struct AcmImage {
  std::vector<std::tuple<graph::NodeId, ObjectId, RightId, Mode>> entries;
  std::vector<std::vector<graph::NodeId>> column_orders;
  std::vector<uint64_t> column_epochs;
  size_t size = 0;
  uint64_t epoch = 0;
  bool operator==(const AcmImage&) const = default;
};

AcmImage ImageOf(const ExplicitAcm& eacm) {
  AcmImage image;
  for (const auto& e : eacm.SortedEntries()) {
    image.entries.emplace_back(e.subject, e.object, e.right, e.mode);
  }
  for (size_t o = 0; o < eacm.object_count(); ++o) {
    for (size_t r = 0; r < eacm.right_count(); ++r) {
      const auto object = static_cast<ObjectId>(o);
      const auto right = static_cast<RightId>(r);
      std::vector<graph::NodeId>& order = image.column_orders.emplace_back();
      for (const auto& e : eacm.Column(object, right)) {
        order.push_back(e.subject);
      }
      image.column_epochs.push_back(eacm.ColumnEpoch(object, right));
    }
  }
  image.size = eacm.size();
  image.epoch = eacm.epoch();
  return image;
}

TEST(ExplicitAcmTest, CopiesKeepTheirColumnsWhileTheOriginalMutates) {
  // Columns are shared between copies and cloned on first write: a
  // copy taken before each edit must keep every entry, order and
  // epoch, and the original must agree with a plain model.
  ExplicitAcm eacm;
  const RightId rights[] = {eacm.InternRight("read").value(),
                            eacm.InternRight("write").value()};
  const ObjectId objects[] = {eacm.InternObject("a").value(),
                              eacm.InternObject("b").value()};
  std::map<std::tuple<graph::NodeId, ObjectId, RightId>, Mode> model;
  std::vector<std::pair<ExplicitAcm, AcmImage>> copies;
  Random rng(11);
  for (int step = 0; step < 1500; ++step) {
    if (step % 100 == 99) {
      for (const auto& [copy, image] : copies) {
        ASSERT_TRUE(ImageOf(copy) == image) << "step " << step;
      }
      copies.clear();  // Back to sole ownership: in-place writes.
    }
    copies.emplace_back(eacm, ImageOf(eacm));
    const auto s = static_cast<graph::NodeId>(rng.Uniform(64));
    const ObjectId o = objects[rng.Uniform(2)];
    const RightId r = rights[rng.Uniform(2)];
    const Mode mode = rng.Bernoulli(0.5) ? Mode::kPositive : Mode::kNegative;
    const auto key = std::make_tuple(s, o, r);
    switch (rng.Uniform(3)) {
      case 0: {
        const bool ok = eacm.Set(s, o, r, mode).ok();
        EXPECT_EQ(ok, !model.contains(key) || model[key] == mode);
        if (ok) model[key] = mode;
        break;
      }
      case 1:
        eacm.Overwrite(s, o, r, mode);
        model[key] = mode;
        break;
      default:
        EXPECT_EQ(eacm.Erase(s, o, r), model.erase(key) == 1);
    }
  }
  ASSERT_EQ(eacm.size(), model.size());
  for (const auto& [key, mode] : model) {
    const auto [s, o, r] = key;
    EXPECT_EQ(eacm.Get(s, o, r), mode);
  }
  // Per-subject rows agree with the whole-matrix scan.
  for (const graph::ReachLabeledRow& row : eacm.ReachRows()) {
    EXPECT_EQ(eacm.ReachRow(row.node), row.row);
  }
}

TEST(AcmTextTest, RoundTrip) {
  const graph::Dag dag = TwoNodeDag();
  ExplicitAcm eacm;
  const ObjectId o = eacm.InternObject("doc").value();
  const RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(dag.FindNode("g"), o, r, Mode::kPositive).ok());
  ASSERT_TRUE(eacm.Set(dag.FindNode("u"), o, r, Mode::kNegative).ok());

  const std::string text = ToText(eacm, dag);
  auto parsed = FromText(text, dag);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 2u);
  const ObjectId po = parsed->FindObject("doc").value();
  const RightId pr = parsed->FindRight("read").value();
  EXPECT_EQ(parsed->Get(dag.FindNode("g"), po, pr), Mode::kPositive);
  EXPECT_EQ(parsed->Get(dag.FindNode("u"), po, pr), Mode::kNegative);
}

TEST(AcmTextTest, ParsesWindowsLineEndings) {
  const graph::Dag dag = TwoNodeDag();
  auto parsed = FromText(
      "# exported on Windows\r\n"
      "auth g doc read +\r\n"
      "auth u doc read -\r\n",
      dag);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 2u);
  // The \r must not be folded into the trailing mode field.
  const ObjectId o = parsed->FindObject("doc").value();
  const RightId r = parsed->FindRight("read").value();
  EXPECT_EQ(parsed->Get(dag.FindNode("u"), o, r), Mode::kNegative);
}

TEST(AcmTextTest, RejectsUnknownSubject) {
  const graph::Dag dag = TwoNodeDag();
  auto parsed = FromText("auth ghost doc read +\n", dag);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown subject"),
            std::string::npos);
}

TEST(AcmTextTest, RejectsBadMode) {
  const graph::Dag dag = TwoNodeDag();
  auto parsed = FromText("auth g doc read *\n", dag);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("mode"), std::string::npos);
}

TEST(AcmTextTest, RejectsMalformedLine) {
  const graph::Dag dag = TwoNodeDag();
  EXPECT_FALSE(FromText("auth g doc read\n", dag).ok());
  EXPECT_FALSE(FromText("grant g doc read +\n", dag).ok());
}

}  // namespace
}  // namespace ucr::acm
