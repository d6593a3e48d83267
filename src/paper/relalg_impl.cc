#include "paper/relalg_impl.h"

#include <optional>
#include <vector>

#include "relalg/operators.h"

namespace ucr::core {

namespace {

using relalg::Relation;
using relalg::Row;
using relalg::Schema;
using relalg::Value;
using relalg::ValueType;

Schema SubjectSchema() {
  return Schema({{"subject", ValueType::kString}});
}

const std::vector<std::string>& PColumns() {
  static const std::vector<std::string>& cols = *new std::vector<std::string>{
      "subject", "object", "right", "dis", "mode"};
  return cols;
}

}  // namespace

Relation BuildSdagRelation(const graph::Dag& dag) {
  Relation out{Schema(
      {{"subject", ValueType::kString}, {"child", ValueType::kString}})};
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    for (graph::NodeId c : dag.children(v)) {
      out.AppendUnchecked(Row{Value(dag.name(v)), Value(dag.name(c))});
    }
  }
  return out;
}

Relation BuildEacmRelation(const acm::ExplicitAcm& eacm,
                           const graph::Dag& dag) {
  Relation out{Schema({{"subject", ValueType::kString},
                       {"object", ValueType::kString},
                       {"right", ValueType::kString},
                       {"mode", ValueType::kString}})};
  for (const auto& e : eacm.SortedEntries()) {
    out.AppendUnchecked(Row{Value(dag.name(e.subject)),
                            Value(eacm.object_name(e.object)),
                            Value(eacm.right_name(e.right)),
                            Value(std::string(1, acm::ModeToChar(e.mode)))});
  }
  return out;
}

StatusOr<Relation> AncestorsRelalg(const Relation& sdag,
                                   std::string_view subject) {
  // ancestors(s) = {s} ∪ {x | ∃y: <x,y> ∈ SDAG ∧ y ∈ ancestors(s)} —
  // the paper's recursive definition, evaluated as a semi-naive-free
  // fixpoint (the graphs are small enough that naive iteration is the
  // clearer transcription).
  Relation anc{SubjectSchema()};
  anc.AppendUnchecked(Row{Value(std::string(subject))});
  for (;;) {
    UCR_ASSIGN_OR_RETURN(Relation as_child,
                         relalg::Rename(anc, "subject", "child"));
    const Relation joined = relalg::NaturalJoin(sdag, as_child);
    UCR_ASSIGN_OR_RETURN(Relation parents,
                         relalg::Project(joined, {"subject"}));
    UCR_ASSIGN_OR_RETURN(Relation unioned, relalg::Union(anc, parents));
    Relation next = relalg::Distinct(unioned);
    if (next.size() == anc.size()) return next;
    anc = std::move(next);
  }
}

namespace {

/// Shared body of PropagateRelalg / PropagateRelalgFullP; returns the
/// full relation P. Fig. 5 lines 1–11.
StatusOr<Relation> PropagateP(const Relation& sdag, const Relation& eacm,
                              std::string_view subject,
                              std::string_view object,
                              std::string_view right) {
  const Value s_value{std::string(subject)};

  // Line 1: SDAG' — edges with both endpoints in ancestors(s).
  UCR_ASSIGN_OR_RETURN(const Relation anc, AncestorsRelalg(sdag, subject));
  const Relation half = relalg::NaturalJoin(sdag, anc);
  UCR_ASSIGN_OR_RETURN(const Relation anc_as_child,
                       relalg::Rename(anc, "subject", "child"));
  const Relation sdag_prime = relalg::NaturalJoin(half, anc_as_child);

  // Line 3: seed P with the explicit authorizations of the
  // sub-hierarchy's nodes at distance 0. (Documented deviation: the
  // node set is ancestors(s) — which includes s — rather than the
  // subject column of SDAG'; see the header.)
  UCR_ASSIGN_OR_RETURN(
      Relation eacm_sel,
      relalg::SelectEquals(eacm, "object", Value(std::string(object))));
  UCR_ASSIGN_OR_RETURN(
      eacm_sel,
      relalg::SelectEquals(eacm_sel, "right", Value(std::string(right))));
  Relation joined = relalg::NaturalJoin(anc, eacm_sel);
  UCR_ASSIGN_OR_RETURN(Relation p_seed,
                       relalg::Project(joined, {"subject", "object", "right",
                                                "mode"}));
  UCR_ASSIGN_OR_RETURN(p_seed,
                       relalg::ExtendConstant(p_seed, "dis", Value(int64_t{0})));
  UCR_ASSIGN_OR_RETURN(Relation p, relalg::Project(p_seed, PColumns()));

  // Line 4: unlabeled roots = ancestors − children(SDAG') − labeled.
  UCR_ASSIGN_OR_RETURN(Relation children_col,
                       relalg::Project(sdag_prime, {"child"}));
  UCR_ASSIGN_OR_RETURN(Relation children_as_subject,
                       relalg::Rename(relalg::Distinct(children_col), "child",
                                      "subject"));
  UCR_ASSIGN_OR_RETURN(Relation labeled,
                       relalg::Project(p, {"subject"}));
  UCR_ASSIGN_OR_RETURN(Relation roots,
                       relalg::Difference(anc, children_as_subject));
  UCR_ASSIGN_OR_RETURN(roots,
                       relalg::Difference(roots, relalg::Distinct(labeled)));

  // Line 5: P ∪= Roots × {⟨object, right, 0, 'd'⟩}.
  Relation default_tuple{Schema({{"object", ValueType::kString},
                                 {"right", ValueType::kString},
                                 {"dis", ValueType::kInt},
                                 {"mode", ValueType::kString}})};
  default_tuple.AppendUnchecked(Row{Value(std::string(object)),
                                    Value(std::string(right)),
                                    Value(int64_t{0}), Value("d")});
  const Relation defaults = relalg::NaturalJoin(roots, default_tuple);
  UCR_ASSIGN_OR_RETURN(p, relalg::Union(p, defaults));

  // Line 6: P' — everything not yet at the sink.
  UCR_ASSIGN_OR_RETURN(Relation p_prime,
                       relalg::SelectNotEquals(p, "subject", s_value));

  // Lines 7–11: push every frontier tuple down one edge per iteration.
  int64_t i = 0;
  while (!p_prime.empty()) {
    ++i;
    const Relation stepped = relalg::NaturalJoin(p_prime, sdag_prime);
    UCR_ASSIGN_OR_RETURN(
        Relation moved,
        relalg::Project(stepped, {"child", "object", "right", "mode"}));
    UCR_ASSIGN_OR_RETURN(moved, relalg::Rename(moved, "child", "subject"));
    UCR_ASSIGN_OR_RETURN(moved, relalg::ExtendConstant(moved, "dis", Value(i)));
    UCR_ASSIGN_OR_RETURN(p_prime, relalg::Project(moved, PColumns()));
    UCR_ASSIGN_OR_RETURN(p, relalg::Union(p, p_prime));
    UCR_ASSIGN_OR_RETURN(p_prime,
                         relalg::SelectNotEquals(p_prime, "subject", s_value));
  }
  return p;
}

}  // namespace

StatusOr<Relation> PropagateRelalg(const Relation& sdag, const Relation& eacm,
                                   std::string_view subject,
                                   std::string_view object,
                                   std::string_view right) {
  UCR_ASSIGN_OR_RETURN(const Relation p,
                       PropagateP(sdag, eacm, subject, object, right));
  // Line 12: σ subject = s.
  return relalg::SelectEquals(p, "subject", Value(std::string(subject)));
}

StatusOr<Relation> PropagateRelalgFullP(const Relation& sdag,
                                        const Relation& eacm,
                                        std::string_view subject,
                                        std::string_view object,
                                        std::string_view right) {
  return PropagateP(sdag, eacm, subject, object, right);
}

StatusOr<acm::Mode> ResolveRelalg(const Relation& all_rights,
                                  const Strategy& strategy,
                                  ResolveTrace* trace) {
  const Strategy s = strategy.Canonical();
  ResolveTrace local_trace;
  ResolveTrace& t = trace != nullptr ? *trace : local_trace;
  t = ResolveTrace{};

  const Value d_value{"d"};
  const Value plus{"+"};
  const Value minus{"-"};

  // Lines 2–3: the default rule.
  Relation rights = all_rights;
  if (s.default_rule == DefaultRule::kNone) {
    UCR_ASSIGN_OR_RETURN(rights,
                         relalg::SelectNotEquals(rights, "mode", d_value));
  } else {
    const Value replacement =
        s.default_rule == DefaultRule::kPositive ? plus : minus;
    const size_t mode_idx = rights.schema().IndexOf("mode");
    if (mode_idx == Schema::npos) {
      return Status::InvalidArgument("allRights lacks a 'mode' attribute");
    }
    rights.Update("mode", replacement,
                  [&](const Row& r) { return r[mode_idx] == d_value; });
  }

  // The locality filter σ dis = lRule(dis), used by lines 5 and 7.
  auto locality = [&](const Relation& input) -> StatusOr<Relation> {
    if (s.locality_rule == LocalityRule::kIdentity) return input;
    UCR_ASSIGN_OR_RETURN(const std::optional<int64_t> target,
                         s.locality_rule == LocalityRule::kMostSpecific
                             ? relalg::MinInt(input, "dis")
                             : relalg::MaxInt(input, "dis"));
    if (!target.has_value()) return Relation(input.schema());
    return relalg::SelectEquals(input, "dis", Value(*target));
  };

  // Lines 4–6: the majority rule.
  if (s.majority_rule != MajorityRule::kSkip) {
    Relation counted = rights;
    if (s.majority_rule == MajorityRule::kAfter) {
      UCR_ASSIGN_OR_RETURN(counted, locality(rights));
    }
    UCR_ASSIGN_OR_RETURN(const Relation positives,
                         relalg::SelectEquals(counted, "mode", plus));
    UCR_ASSIGN_OR_RETURN(const Relation negatives,
                         relalg::SelectEquals(counted, "mode", minus));
    const size_t c1 = relalg::Count(positives);
    const size_t c2 = relalg::Count(negatives);
    t.c1 = c1;
    t.c2 = c2;
    if (c1 != c2) {
      t.result = c1 > c2 ? acm::Mode::kPositive : acm::Mode::kNegative;
      t.returned_line = 6;
      return t.result;
    }
  }

  // Lines 7–8: Auth ← Π mode (σ dis=lRule(dis) allRights).
  UCR_ASSIGN_OR_RETURN(const Relation filtered, locality(rights));
  UCR_ASSIGN_OR_RETURN(Relation auth, relalg::Project(filtered, {"mode"}));
  auth = relalg::Distinct(auth);
  t.auth_computed = true;
  for (const Row& r : auth.rows()) {
    if (r[0] == plus) t.auth_has_positive = true;
    if (r[0] == minus) t.auth_has_negative = true;
  }
  if (relalg::Count(auth) == 1) {
    t.result = t.auth_has_positive ? acm::Mode::kPositive
                                   : acm::Mode::kNegative;
    t.returned_line = 8;
    return t.result;
  }

  // Line 9: the preference rule.
  t.result = s.preference_rule == PreferenceRule::kPositive
                 ? acm::Mode::kPositive
                 : acm::Mode::kNegative;
  t.returned_line = 9;
  return t.result;
}

StatusOr<acm::Mode> ResolveAccessRelalg(const graph::Dag& dag,
                                        const acm::ExplicitAcm& eacm,
                                        graph::NodeId subject,
                                        acm::ObjectId object,
                                        acm::RightId right,
                                        const Strategy& strategy,
                                        ResolveTrace* trace) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  if (object >= eacm.object_count() || right >= eacm.right_count()) {
    return Status::OutOfRange("object/right id out of range");
  }
  const Relation sdag = BuildSdagRelation(dag);
  const Relation eacm_rel = BuildEacmRelation(eacm, dag);
  UCR_ASSIGN_OR_RETURN(
      const Relation all_rights,
      PropagateRelalg(sdag, eacm_rel, dag.name(subject),
                      eacm.object_name(object), eacm.right_name(right)));
  return ResolveRelalg(all_rights, strategy, trace);
}

StatusOr<RightsBag> RelationToRightsBag(const Relation& all_rights) {
  const size_t dis_idx = all_rights.schema().IndexOf("dis");
  const size_t mode_idx = all_rights.schema().IndexOf("mode");
  if (dis_idx == Schema::npos || mode_idx == Schema::npos) {
    return Status::InvalidArgument(
        "allRights relation needs 'dis' and 'mode' attributes");
  }
  RightsBag bag;
  for (const Row& r : all_rights.rows()) {
    const int64_t dis = r[dis_idx].AsInt();
    if (dis < 0) return Status::Corruption("negative distance");
    const std::string& mode = r[mode_idx].AsString();
    acm::PropagatedMode pm;
    if (mode == "+") {
      pm = acm::PropagatedMode::kPositive;
    } else if (mode == "-") {
      pm = acm::PropagatedMode::kNegative;
    } else if (mode == "d") {
      pm = acm::PropagatedMode::kDefault;
    } else {
      return Status::Corruption("unknown mode '" + mode + "'");
    }
    bag.Add(static_cast<uint32_t>(dis), pm, 1);
  }
  bag.Normalize();
  return bag;
}

}  // namespace ucr::core
