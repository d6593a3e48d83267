#ifndef UCR_PAPER_MIXED_SYSTEM_H_
#define UCR_PAPER_MIXED_SYSTEM_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/strategy.h"
#include "graph/dag.h"
#include "paper/mixed.h"
#include "util/status.h"

namespace ucr::core {

/// \brief Facade over *mixed* subject+object hierarchies: the
/// user-facing counterpart of `AccessControlSystem` for deployments
/// where objects nest too (paper §6 future-work #2; semantics in
/// paper/mixed.h).
///
/// Authorizations attach to ⟨subject, object, right⟩ where both the
/// subject and the object are nodes of their respective DAGs. Rights
/// are interned flat names (no right hierarchy). Queries resolve by
/// two-sided propagation and the unchanged 48-strategy Resolve().
///
/// Not thread-safe for mutation; move-only.
class MixedAccessControlSystem {
 public:
  /// Takes ownership of both hierarchies.
  MixedAccessControlSystem(graph::Dag subjects, graph::Dag objects);

  MixedAccessControlSystem(const MixedAccessControlSystem&) = delete;
  MixedAccessControlSystem& operator=(const MixedAccessControlSystem&) =
      delete;
  MixedAccessControlSystem(MixedAccessControlSystem&&) = default;
  MixedAccessControlSystem& operator=(MixedAccessControlSystem&&) = default;

  const graph::Dag& subjects() const { return subjects_; }
  const graph::Dag& objects() const { return objects_; }

  const Strategy& strategy() const { return strategy_; }
  void SetStrategy(const Strategy& strategy) {
    strategy_ = strategy.Canonical();
  }

  /// Grants/denies `right` on the object (sub)tree to the subject
  /// (sub)tree. Both names must exist in their hierarchies; the right
  /// is interned on first use. Contradicting re-grants fail.
  Status Grant(std::string_view subject, std::string_view object,
               std::string_view right);
  Status DenyAccess(std::string_view subject, std::string_view object,
                    std::string_view right);

  /// Removes the explicit pair authorization; false if absent.
  StatusOr<bool> Revoke(std::string_view subject, std::string_view object,
                        std::string_view right);

  /// Number of explicit pair authorizations.
  size_t authorization_count() const;

  /// Effective decision under the session strategy.
  StatusOr<acm::Mode> CheckAccess(std::string_view subject,
                                  std::string_view object,
                                  std::string_view right);

  /// Effective decision under an explicit strategy.
  StatusOr<acm::Mode> CheckAccess(std::string_view subject,
                                  std::string_view object,
                                  std::string_view right,
                                  const Strategy& strategy,
                                  ResolveTrace* trace = nullptr);

  /// All rights ever interned, in id order (for serialization).
  const std::vector<std::string>& rights() const { return right_names_; }

  /// Authorizations for one right, unordered.
  StatusOr<std::vector<MixedAuthorization>> AuthorizationsFor(
      std::string_view right) const;

 private:
  struct NodePair {
    graph::NodeId subject;
    graph::NodeId object;
    bool operator==(const NodePair&) const = default;
  };
  struct NodePairHash {
    size_t operator()(const NodePair& p) const {
      return (static_cast<uint64_t>(p.subject) << 32 | p.object) *
             0x9E3779B97F4A7C15ull;
    }
  };

  StatusOr<size_t> InternRight(std::string_view right);
  Status SetPair(std::string_view subject, std::string_view object,
                 std::string_view right, acm::Mode mode);

  graph::Dag subjects_;
  graph::Dag objects_;
  Strategy strategy_;
  std::vector<std::string> right_names_;
  std::unordered_map<std::string, size_t> right_ids_;
  /// Per right: (subject, object) -> mode.
  std::vector<std::unordered_map<NodePair, acm::Mode, NodePairHash>>
      entries_;
};

/// Serializes a mixed system: strategy line, [subjects], [objects],
/// [authorizations] with `auth <subject> <object> <right> <+|->` rows.
std::string SaveMixedSystemToText(const MixedAccessControlSystem& system);

/// Parses the `SaveMixedSystemToText` format.
StatusOr<MixedAccessControlSystem> LoadMixedSystemFromText(
    std::string_view text);

}  // namespace ucr::core

#endif  // UCR_PAPER_MIXED_SYSTEM_H_
