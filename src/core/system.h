#ifndef UCR_CORE_SYSTEM_H_
#define UCR_CORE_SYSTEM_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "graph/reachability.h"
#include "util/status.h"

namespace ucr::core {

/// \brief How the mutators treat a grant/deny whose triple already
/// holds the *opposite* explicit mode.
///
/// The paper's §3.3 disallows contradicting explicit authorizations,
/// so the matrix itself always rejects them; this policy decides what
/// an administrative grant/deny *operation* does when it runs into one.
enum class GrantConflictPolicy : uint8_t {
  /// Fail the operation with FailedPrecondition naming the conflict;
  /// the matrix is unchanged. The caller revokes first or switches the
  /// policy. Default: silent permission flips should be deliberate.
  kReject = 0,
  /// Replace the opposing entry in place (last-writer-wins), exactly
  /// as an explicit revoke-then-set would, in one epoch bump.
  kOverwrite,
};

/// Options for `AccessControlSystem`.
struct SystemOptions {
  /// Strategy used when a query does not name one. Reconfiguring this
  /// at run time is the paper's headline capability: switching the
  /// enterprise's conflict-resolution strategy without reinstalling
  /// anything.
  Strategy default_strategy;  // Zero-initialized: P- (closed preference).

  /// Propagation extension mode (paper future-work #3) applied by all
  /// of this system's queries and materializations.
  PropagationMode propagation_mode = PropagationMode::kBoth;

  /// Behavior of `Grant`/`DenyAccess` (and batch grant/deny ops) when
  /// the triple already holds the opposite explicit mode.
  GrantConflictPolicy mutation_conflict_policy = GrantConflictPolicy::kReject;

  /// Maintain the reachability-label / summary-DAG index (DESIGN.md
  /// §12) and compose query sink bags from it — O(label) per query
  /// instead of O(ancestor sub-graph). The index is refreshed lazily:
  /// mutators only record their affected sets, and the next query (or
  /// snapshot publication) coalesces them into one incremental
  /// rebuild. Decisions are bit-identical to the classic engines;
  /// turning this off keeps classic extraction as the differential
  /// oracle.
  bool use_reachability_index = true;

  /// Build budgets for the reachability index; a breach marks the
  /// index not-ready and queries fall back to classic extraction.
  graph::ReachabilityOptions reachability_options;
};

/// \brief The user-facing facade: a subject hierarchy plus an explicit
/// access control matrix, answering effective-authorization queries
/// under any of the 48 conflict-resolution strategies.
///
/// Typical use:
///
///     auto system = AccessControlSystem::Create(std::move(dag));
///     system->SetStrategy(ParseStrategy("D+LP-").value());
///     system->Grant("payroll", "salary.xls", "read");
///     system->DenyAccess("interns", "salary.xls", "read");
///     bool ok = system->CheckAccessByName("alice", "salary.xls", "read");
///
/// Thread-safety: the classic entry points (`CheckAccess`, the
/// mutators) are not synchronized against each other — callers quiesce
/// readers around writes, as before. With snapshot reads enabled
/// (DESIGN.md §11) the contract widens: any number of threads may call
/// `CheckAccessSnapshot` concurrently with a single mutating thread —
/// mutators serialize on an internal write lock, publish an immutable
/// `HierarchySnapshot` per edit (or per batch), and snapshot readers
/// pin an epoch and never touch the master state or any lock.
class AccessControlSystem {
 public:
  /// Takes ownership of the hierarchy.
  explicit AccessControlSystem(graph::Dag dag, SystemOptions options = {});

  /// \brief Adopts a hierarchy *and* a pre-populated explicit matrix
  /// wholesale — the binary snapshot loader's constructor
  /// (core/binary_snapshot.h).
  ///
  /// The text loader replays entries through `Grant`/`DenyAccess`,
  /// which re-interns object/right names in entry order; a snapshot
  /// must instead preserve the saved intern order exactly (interned
  /// ids persist in WAL-adjacent state and in callers' hands), so this
  /// path skips replay and takes the matrix as-is. The matrix's epoch
  /// history is its own.
  /// (`options` is deliberately not defaulted: `{dag, {}}` must keep
  /// resolving to the plain constructor above.)
  AccessControlSystem(graph::Dag dag, acm::ExplicitAcm eacm,
                      SystemOptions options);

  // Move-only: two live copies of one policy store invite divergence
  // bugs.
  AccessControlSystem(const AccessControlSystem&) = delete;
  AccessControlSystem& operator=(const AccessControlSystem&) = delete;
  AccessControlSystem(AccessControlSystem&&) = default;
  AccessControlSystem& operator=(AccessControlSystem&&) = default;

  const graph::Dag& dag() const { return dag_; }
  const acm::ExplicitAcm& eacm() const { return eacm_; }

  /// The propagation extension mode every query of this system applies
  /// (read by external engines — the paper library's EffectiveMatrix —
  /// so their derivations match this system's own decisions exactly).
  PropagationMode propagation_mode() const {
    return options_.propagation_mode;
  }

  /// The strategy used by queries that do not name one.
  const Strategy& strategy() const { return options_.default_strategy; }

  /// Reconfigures the session strategy. Memoized snapshot decisions
  /// keyed under other strategies stay valid (the strategy is part of
  /// the key). Audit-logged: a strategy change flips every decision
  /// the old strategy and the new one disagree on, so the trail must
  /// show it.
  void SetStrategy(const Strategy& strategy);

  /// Grants `right` on `object` to `subject` explicitly.
  /// All three names are created/interned on first use except the
  /// subject, which must exist in the hierarchy.
  Status Grant(std::string_view subject, std::string_view object,
               std::string_view right);

  /// Denies `right` on `object` to `subject` explicitly.
  Status DenyAccess(std::string_view subject, std::string_view object,
                    std::string_view right);

  /// Removes any explicit authorization for the triple.
  Status Revoke(std::string_view subject, std::string_view object,
                std::string_view right);

  /// Effective decision for a triple under the session strategy.
  StatusOr<acm::Mode> CheckAccessByName(std::string_view subject,
                                        std::string_view object,
                                        std::string_view right);

  /// Effective decision under an explicit strategy.
  StatusOr<acm::Mode> CheckAccessByName(std::string_view subject,
                                        std::string_view object,
                                        std::string_view right,
                                        const Strategy& strategy);

  /// \brief Id-based query, resolved on the master state by
  /// `ResolveAccess` over the current reachability index (refreshed
  /// first). Nothing is memoized here: the one decision memo is the
  /// published snapshot's table (`CheckAccessSnapshot`, DESIGN.md §11).
  StatusOr<acm::Mode> CheckAccess(graph::NodeId subject, acm::ObjectId object,
                                  acm::RightId right,
                                  const Strategy& strategy);

  /// \brief Adds a membership edge `parent -> child` to the hierarchy
  /// at run time (new hires, reorganizations). Both subjects may be
  /// new (created on first mention). Fails if the edge would create a
  /// cycle or already exists; on failure the hierarchy is unchanged.
  ///
  /// The edit is applied in place (no hierarchy rebuild) and reports
  /// its *affected set* — the edited child and its descendants in the
  /// membership direction, the only subjects whose ancestor sub-graphs
  /// the edit can change (DESIGN.md §10). The set scopes the next
  /// incremental reachability rebuild, and the generation stamps behind
  /// it scope the next snapshot's carry-over. When `affected` is
  /// non-null it receives the affected node ids.
  Status AddMembership(std::string_view parent, std::string_view child,
                       std::vector<graph::NodeId>* affected = nullptr);

  /// Removes a membership edge. Fails if absent. The affected set is
  /// scoped exactly like AddMembership's. Subjects are never removed —
  /// a node that loses its last membership becomes a root.
  Status RemoveMembership(std::string_view parent, std::string_view child,
                          std::vector<graph::NodeId>* affected = nullptr);

  /// One operation of a mutation batch (ApplyMutations).
  struct MutationOp {
    enum class Kind : uint8_t {
      kGrant = 0,
      kDeny,
      kRevoke,
      kAddMembership,
      kRemoveMembership,
    };
    Kind kind = Kind::kGrant;
    /// Subject (rights ops) or parent group (membership ops).
    std::string subject;
    /// Object (rights ops) or child subject (membership ops).
    std::string object;
    /// Right name; ignored by membership ops.
    std::string right;

    static MutationOp Grant(std::string subject, std::string object,
                            std::string right) {
      return {Kind::kGrant, std::move(subject), std::move(object),
              std::move(right)};
    }
    static MutationOp Deny(std::string subject, std::string object,
                           std::string right) {
      return {Kind::kDeny, std::move(subject), std::move(object),
              std::move(right)};
    }
    static MutationOp Revoke(std::string subject, std::string object,
                             std::string right) {
      return {Kind::kRevoke, std::move(subject), std::move(object),
              std::move(right)};
    }
    static MutationOp AddMember(std::string parent, std::string child) {
      return {Kind::kAddMembership, std::move(parent), std::move(child), {}};
    }
    static MutationOp RemoveMember(std::string parent, std::string child) {
      return {Kind::kRemoveMembership, std::move(parent), std::move(child),
              {}};
    }
  };

  /// Stable lower-case name of a mutation-op kind ("grant", "deny",
  /// "revoke", "add_membership", "remove_membership") — error messages
  /// and tooling output.
  static const char* MutationOpKindName(MutationOp::Kind kind);

  /// What a mutation batch did, for observability and for forwarding
  /// the coalesced affected set to external consumers.
  struct MutationBatchStats {
    /// Sentinel for `failed_index`: every op applied.
    static constexpr size_t kNone = static_cast<size_t>(-1);

    size_t applied = 0;              ///< Ops executed successfully.
    /// Decision-table entries of the previous snapshot that this
    /// batch's publication did not carry over
    /// (`SnapshotBuildStats::resolution_dropped`); 0 when snapshot
    /// reads are off.
    size_t invalidated_entries = 0;
    /// Index into the batch of the op that failed, or `kNone` when the
    /// whole batch applied. On failure `failed_index == applied`: the
    /// ops before it are master state, the rest were never attempted —
    /// exactly what a caller (or WAL replay) needs to resume
    /// deterministically after the last applied op.
    size_t failed_index = kNone;
    /// Log sequence number of this batch's WAL commit record; 0 when
    /// the system is not running on a durable store (core/
    /// persistent_system.h fills it in).
    uint64_t last_lsn = 0;
    /// Union of the per-edit affected sets, ascending by node id.
    std::vector<graph::NodeId> affected;
  };

  /// \brief Applies a batch of mutations in order, coalescing the
  /// hierarchy edits' affected sets into one reachability rebuild and
  /// (with snapshot reads on) one snapshot publication at the end — a
  /// reorg touching one subtree N times publishes once, not N times.
  ///
  /// Stops at the first failing op (prior ops stay applied — each op
  /// is individually atomic and the publication still covers them); no
  /// query may run between the failing batch and the returned status
  /// being handled. A failure Status names the
  /// failing op's index and kind, and `stats->failed_index` carries the
  /// index so callers resume without parsing the message.
  Status ApplyMutations(std::span<const MutationOp> ops,
                        MutationBatchStats* stats = nullptr);

  /// One access query of a batch (`BatchResolver`, the query streams).
  struct AccessQuery {
    graph::NodeId subject = 0;
    acm::ObjectId object = 0;
    acm::RightId right = 0;
  };

  /// \brief The reachability index for the *current* master state,
  /// building or incrementally refreshing it first (DESIGN.md §12).
  ///
  /// Null when `use_reachability_index` is off. May report
  /// `ready() == false` after a budget breach — queries then fall back
  /// to classic extraction on their own. Primarily for tests, benches
  /// and exposition; queries refresh the index on demand themselves.
  /// Not thread-safe (same contract as `CheckAccess` and the mutators).
  const graph::ReachabilityIndex* reachability_index();

  // -- Epoch-pinned snapshot reads (DESIGN.md §11) -------------------

  /// \brief Switches the system to snapshot publication: every
  /// successful mutator from here on builds the next immutable
  /// `HierarchySnapshot` and publishes it with one atomic swap, and
  /// `CheckAccessSnapshot` serves lock-free from the published one.
  ///
  /// Publishes snapshot #1 immediately. Idempotent; not thread-safe
  /// against concurrent mutators (enable before going concurrent, like
  /// any other configuration).
  void EnableSnapshotReads();

  bool snapshot_reads_enabled() const { return snapshot_state_ != nullptr; }

  /// The epoch machinery, for pinning across multi-query work and for
  /// observability (`current_epoch`, `active_readers`). Null until
  /// `EnableSnapshotReads`.
  const SnapshotManager* snapshots() const {
    return snapshot_state_ != nullptr ? &snapshot_state_->manager : nullptr;
  }

  /// \brief Lock-free effective decision against the currently
  /// published snapshot, under the snapshot's session strategy.
  ///
  /// Safe from any thread while mutators run concurrently; the answer
  /// reflects the policy state as of the pinned epoch (at most one
  /// publication behind the master). Fails with kFailedPrecondition
  /// when snapshot reads are not enabled.
  StatusOr<acm::Mode> CheckAccessSnapshot(graph::NodeId subject,
                                          acm::ObjectId object,
                                          acm::RightId right) const;

  /// Lock-free decision under an explicit strategy.
  StatusOr<acm::Mode> CheckAccessSnapshot(graph::NodeId subject,
                                          acm::ObjectId object,
                                          acm::RightId right,
                                          const Strategy& strategy) const;

  /// Name-based snapshot query; names resolve against the pinned
  /// snapshot's own hierarchy/matrix (still lock-free).
  StatusOr<acm::Mode> CheckAccessSnapshotByName(std::string_view subject,
                                                std::string_view object,
                                                std::string_view right) const;

 private:
  /// Everything the snapshot write path needs, boxed so the system
  /// stays movable (a mutex member would delete the default moves).
  struct SnapshotState {
    /// Serializes mutators and snapshot publication. Instrumented via
    /// the `ucr_write_lock_*` family — never taken by readers.
    std::mutex write_mu;
    SnapshotManager manager;
    /// Resolution-table slots for the next snapshot: 2^14 for the
    /// first, then sized from the entries the current one holds
    /// (`NextResolutionCapacity`).
    size_t resolution_capacity = size_t{1} << 14;
    /// Mutations applied since the last publication (drives the
    /// `ucr_epoch_lag` gauge; nonzero only mid-batch).
    uint64_t pending_mutations = 0;
  };

  Status SetMode(std::string_view subject, std::string_view object,
                 std::string_view right, acm::Mode mode);

  /// Revoke body shared by the locked public wrapper and batches.
  Status RevokeUnlocked(std::string_view subject, std::string_view object,
                        std::string_view right);

  /// Builds the next snapshot from the master state (carrying over
  /// what survives from the current one) and publishes it. Requires
  /// `snapshot_state_` non-null and `write_mu` held (single writer).
  /// Returns the decision-table entries the new snapshot did not carry.
  size_t PublishSnapshotLocked();

  /// Bumps the pending-mutation count / lag gauge after one applied
  /// op. No-op when snapshots are disabled.
  void NoteMutationApplied();

  /// Applies one membership edit in place (`add` selects insert vs
  /// erase), appends the affected node ids to `affected` and to the
  /// reach-index dirt, and emits the audit event.
  Status MutateMembership(bool add, std::string_view parent,
                          std::string_view child,
                          std::vector<graph::NodeId>* affected);

  /// \brief Brings `reach_index_` up to date with the master state.
  ///
  /// Deferred and coalesced: mutators only append to the dirty sets
  /// below, and the next consumer (query miss, batch, snapshot
  /// publication) pays one incremental rebuild for the whole run of
  /// edits — a reorg touching one subtree N times rebuilds once. No-op
  /// when the index is current or `use_reachability_index` is off.
  void EnsureReachIndexCurrent();

  /// True when edits must record reach-index dirt: only a ready
  /// generation is rebuilt incrementally from it.
  bool ReachDirtTracked() const;

  /// Records reach-index dirt after one applied rights edit: the
  /// subject's row changed, which can re-class it and therefore
  /// relabel everything that can see it (its descendants).
  void NoteRightsEdit(graph::NodeId subject);

  graph::Dag dag_;
  acm::ExplicitAcm eacm_;
  SystemOptions options_;
  std::unique_ptr<SnapshotState> snapshot_state_;

  /// Last built reachability index (shared with published snapshots;
  /// queries verify generation/epoch before trusting it). Null until
  /// the first consumer builds it.
  std::shared_ptr<const graph::ReachabilityIndex> reach_index_;
  /// Subjects whose ancestor set or row changed since `reach_index_`
  /// was built, closed under hierarchy descendants (unsorted, may hold
  /// duplicates; coalesced by EnsureReachIndexCurrent).
  std::vector<graph::NodeId> reach_dirty_affected_;
  /// Subjects whose explicit row changed since `reach_index_` was
  /// built.
  std::vector<graph::NodeId> reach_dirty_rows_;
};

}  // namespace ucr::core

#endif  // UCR_CORE_SYSTEM_H_
