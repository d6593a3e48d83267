#include "paper/mixed.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/ancestor_subgraph.h"

namespace ucr::core {

namespace {

using acm::Mode;
using acm::PropagatedMode;
using graph::AncestorSubgraph;
using graph::LocalId;

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

uint64_t CountProfileEntries(const std::vector<std::vector<uint64_t>>& prof) {
  uint64_t total = 0;
  for (const auto& p : prof) total += p.size();
  return total;
}

uint64_t PairKey(LocalId subject, LocalId object) {
  return (static_cast<uint64_t>(subject) << 32) | object;
}

/// Adds the convolution of two distance profiles to `bag` under `mode`.
void Convolve(const std::vector<uint64_t>& subject_profile,
              const std::vector<uint64_t>& object_profile,
              PropagatedMode mode, RightsBag* bag, uint64_t* tuples) {
  for (size_t i = 0; i < subject_profile.size(); ++i) {
    if (subject_profile[i] == 0) continue;
    for (size_t j = 0; j < object_profile.size(); ++j) {
      if (object_profile[j] == 0) continue;
      bag->Add(static_cast<uint32_t>(i + j), mode,
               SatMul(subject_profile[i], object_profile[j]));
      if (tuples != nullptr) ++*tuples;
    }
  }
}

}  // namespace

std::vector<uint64_t> DistanceProfile(const graph::Dag& dag,
                                      graph::NodeId source,
                                      graph::NodeId sink) {
  if (source >= dag.node_count() || sink >= dag.node_count()) return {};
  const AncestorSubgraph sub(dag, sink);
  const LocalId local = sub.ToLocal(source);
  if (local == graph::kInvalidNode) return {};
  return graph::AllDistanceProfiles(sub)[local];
}

StatusOr<RightsBag> MixedPropagate(
    const graph::Dag& subject_dag, const graph::Dag& object_dag,
    const std::vector<MixedAuthorization>& authorizations,
    graph::NodeId subject, graph::NodeId object,
    MixedPropagateStats* stats) {
  if (subject >= subject_dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  if (object >= object_dag.node_count()) {
    return Status::OutOfRange("object id out of range");
  }

  const AncestorSubgraph sub_s(subject_dag, subject);
  const AncestorSubgraph sub_o(object_dag, object);
  const std::vector<std::vector<uint64_t>> prof_s =
      graph::AllDistanceProfiles(sub_s);
  const std::vector<std::vector<uint64_t>> prof_o =
      graph::AllDistanceProfiles(sub_o);
  if (stats != nullptr) {
    *stats = MixedPropagateStats{};
    stats->profile_entries =
        CountProfileEntries(prof_s) + CountProfileEntries(prof_o);
  }

  RightsBag bag;
  // Explicit authorizations whose pair reaches ⟨subject, object⟩.
  // Track labeled pairs so the default rule can skip them, and reject
  // contradictions (the paper's at-most-one-authorization-per-triple
  // assumption, lifted to pairs).
  std::unordered_map<uint64_t, Mode> labeled_pairs;
  for (const MixedAuthorization& auth : authorizations) {
    if (auth.subject >= subject_dag.node_count() ||
        auth.object >= object_dag.node_count()) {
      return Status::OutOfRange("authorization references unknown node");
    }
    const LocalId ls = sub_s.ToLocal(auth.subject);
    const LocalId lo = sub_o.ToLocal(auth.object);
    if (ls == graph::kInvalidNode || lo == graph::kInvalidNode) {
      continue;  // Does not reach this pair; irrelevant to the query.
    }
    auto [it, inserted] =
        labeled_pairs.try_emplace(PairKey(ls, lo), auth.mode);
    if (!inserted) {
      if (it->second == auth.mode) continue;  // Duplicate: idempotent.
      return Status::FailedPrecondition(
          "contradicting explicit authorizations on one "
          "(subject, object) pair");
    }
    Convolve(prof_s[ls], prof_o[lo], acm::ToPropagated(auth.mode), &bag,
             stats != nullptr ? &stats->pair_tuples : nullptr);
  }

  // Step 2, lifted: the 'd' marker sits on unlabeled
  // ⟨subject-root, object-root⟩ pairs.
  for (LocalId rs : sub_s.roots()) {
    for (LocalId ro : sub_o.roots()) {
      if (labeled_pairs.contains(PairKey(rs, ro))) continue;
      Convolve(prof_s[rs], prof_o[ro], PropagatedMode::kDefault, &bag,
               stats != nullptr ? &stats->pair_tuples : nullptr);
    }
  }

  bag.Normalize();
  return bag;
}

StatusOr<acm::Mode> MixedResolveAccess(
    const graph::Dag& subject_dag, const graph::Dag& object_dag,
    const std::vector<MixedAuthorization>& authorizations,
    graph::NodeId subject, graph::NodeId object, const Strategy& strategy,
    ResolveTrace* trace) {
  UCR_ASSIGN_OR_RETURN(const RightsBag bag,
                       MixedPropagate(subject_dag, object_dag, authorizations,
                                      subject, object));
  return Resolve(bag, strategy, trace);
}

}  // namespace ucr::core
