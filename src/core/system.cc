#include "core/system.h"

#include <algorithm>
#include <mutex>
#include <optional>

#include "obs/audit_log.h"
#include "obs/metrics.h"

namespace ucr::core {

namespace {

/// Front-door telemetry (DESIGN.md §8): CheckAccess is the serving
/// entry point of the master state (behind CheckAccessByName and the
/// admin CLI). Latency, the sampled Fig. 4 trace and its exemplar are
/// recorded by the ResolveAccess call it delegates to.
struct SystemMetrics {
  obs::Counter& queries = obs::Registry::Global().GetCounter(
      "ucr_system_queries_total",
      "Queries answered by AccessControlSystem::CheckAccess");
};

SystemMetrics& GetSystemMetrics() {
  static SystemMetrics* metrics = new SystemMetrics();
  return *metrics;
}

/// Write-path telemetry (DESIGN.md §10): hierarchy-edit volume and the
/// reach of each edit in affected subjects.
struct MutationMetrics {
  obs::Counter& mutations = obs::Registry::Global().GetCounter(
      "ucr_mutations_total",
      "Hierarchy mutations applied (membership edge inserts/removals)");
  obs::Histogram& affected_subjects = obs::Registry::Global().GetHistogram(
      "ucr_mutation_affected_subjects",
      "Affected-set size per membership edit (subjects)");
};

MutationMetrics& GetMutationMetrics() {
  static MutationMetrics* metrics = new MutationMetrics();
  return *metrics;
}

/// Audit hook for the named administrative operations (DESIGN.md §9).
/// Cold by construction: only successful state changes reach it, and
/// the Enabled() check is done by the caller.
[[gnu::noinline, gnu::cold]] void EmitAdminEvent(
    obs::AuditEventType type, std::string_view detail, uint64_t value = 0) {
  obs::AuditEvent event;
  event.type = type;
  event.value = value;
  event.SetDetail(detail);
  obs::AuditLog::Global().Emit(event);
}

/// The epoch-lag gauge lives in snapshot.cc's metric family; the write
/// path updates it by interned name (the registry hands back the same
/// gauge object).
obs::Gauge& EpochLagGauge() {
  static obs::Gauge& gauge = obs::Registry::Global().GetGauge(
      "ucr_epoch_lag",
      "Master-state mutations applied but not yet visible in the published "
      "snapshot");
  return gauge;
}

/// Takes the snapshot write lock when snapshots are enabled (null
/// mutex = disabled = the historical unsynchronized write path, zero
/// overhead). Instrumented under the write-path family so the
/// reader-path `ucr_lock_*` counters stay untouched by mutators.
class [[nodiscard]] WriterGuard {
 public:
  explicit WriterGuard(std::mutex* mu) : mu_(mu) {
    if (mu_ != nullptr) {
      obs::LockWithMetrics(*mu_, obs::GetWriteLockMetrics());
    }
  }
  ~WriterGuard() {
    if (mu_ != nullptr) mu_->unlock();
  }
  WriterGuard(const WriterGuard&) = delete;
  WriterGuard& operator=(const WriterGuard&) = delete;

 private:
  std::mutex* mu_;
};

/// The engine options every facade query resolves under.
ResolveAccessOptions FacadeResolveOptions(const SystemOptions& options) {
  ResolveAccessOptions resolve_options;
  resolve_options.propagation_mode = options.propagation_mode;
  resolve_options.use_reachability_index = options.use_reachability_index;
  return resolve_options;
}

}  // namespace

AccessControlSystem::AccessControlSystem(graph::Dag dag, SystemOptions options)
    : dag_(std::move(dag)), options_(options) {
  options_.default_strategy = options_.default_strategy.Canonical();
}

AccessControlSystem::AccessControlSystem(graph::Dag dag, acm::ExplicitAcm eacm,
                                         SystemOptions options)
    : dag_(std::move(dag)), eacm_(std::move(eacm)), options_(options) {
  options_.default_strategy = options_.default_strategy.Canonical();
}

const char* AccessControlSystem::MutationOpKindName(MutationOp::Kind kind) {
  switch (kind) {
    case MutationOp::Kind::kGrant:
      return "grant";
    case MutationOp::Kind::kDeny:
      return "deny";
    case MutationOp::Kind::kRevoke:
      return "revoke";
    case MutationOp::Kind::kAddMembership:
      return "add_membership";
    case MutationOp::Kind::kRemoveMembership:
      return "remove_membership";
  }
  return "unknown";
}

void AccessControlSystem::SetStrategy(const Strategy& strategy) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  options_.default_strategy = strategy.Canonical();
  if (obs::AuditLog::Enabled()) {
    EmitAdminEvent(obs::AuditEventType::kStrategyChange,
                   options_.default_strategy.ToMnemonic(),
                   options_.default_strategy.CanonicalIndex());
  }
  // The session strategy is part of the snapshot (it decides every
  // default-strategy query), so reconfiguring it republishes.
  if (snapshot_state_ != nullptr) PublishSnapshotLocked();
}

Status AccessControlSystem::SetMode(std::string_view subject,
                                    std::string_view object,
                                    std::string_view right, acm::Mode mode) {
  const graph::NodeId s = dag_.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const acm::ObjectId o, eacm_.InternObject(object));
  UCR_ASSIGN_OR_RETURN(const acm::RightId r, eacm_.InternRight(right));
  const std::optional<acm::Mode> existing = eacm_.Get(s, o, r);
  if (existing.has_value() && *existing == mode) return Status::OK();
  if (existing.has_value()) {
    // The triple holds the opposite mode; the matrix itself always
    // rejects contradictions (§3.3), so the outcome is decided here by
    // the configured policy.
    if (options_.mutation_conflict_policy == GrantConflictPolicy::kReject) {
      return Status::FailedPrecondition(
          "subject '" + std::string(subject) + "' already holds the opposite "
          "explicit mode for (" + std::string(object) + ", " +
          std::string(right) + "); revoke it first or configure "
          "mutation_conflict_policy = kOverwrite");
    }
    eacm_.Overwrite(s, o, r, mode);
  } else {
    UCR_RETURN_IF_ERROR(eacm_.Set(s, o, r, mode));
  }
  NoteRightsEdit(s);
  if (obs::AuditLog::Enabled()) {
    obs::AuditEvent event;
    event.type = mode == acm::Mode::kPositive ? obs::AuditEventType::kGrant
                                              : obs::AuditEventType::kDeny;
    event.has_ids = true;
    event.subject = s;
    event.object = o;
    event.right = r;
    event.SetDetail(std::string(subject) + " " + std::string(object) + " " +
                    std::string(right));
    obs::AuditLog::Global().Emit(event);
  }
  return Status::OK();
}

Status AccessControlSystem::Grant(std::string_view subject,
                                  std::string_view object,
                                  std::string_view right) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  const Status status = SetMode(subject, object, right, acm::Mode::kPositive);
  if (status.ok() && snapshot_state_ != nullptr) PublishSnapshotLocked();
  return status;
}

Status AccessControlSystem::DenyAccess(std::string_view subject,
                                       std::string_view object,
                                       std::string_view right) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  const Status status = SetMode(subject, object, right, acm::Mode::kNegative);
  if (status.ok() && snapshot_state_ != nullptr) PublishSnapshotLocked();
  return status;
}

Status AccessControlSystem::MutateMembership(
    bool add, std::string_view parent, std::string_view child,
    std::vector<graph::NodeId>* affected) {
  std::vector<graph::NodeId> edit_affected;
  if (add) {
    // Reject self-loops by name before creating anything, so a failed
    // edit never leaves a stray node behind. (Every other failure mode
    // — duplicate edge, cycle — requires both endpoints to already
    // exist, so EnsureNode cannot have created them.)
    if (parent == child) {
      return Status::InvalidArgument("self-loop on node '" +
                                     std::string(parent) + "'");
    }
    const graph::NodeId p = dag_.EnsureNode(parent);
    const graph::NodeId c = dag_.EnsureNode(child);
    UCR_RETURN_IF_ERROR(dag_.InsertEdge(p, c, &edit_affected));
  } else {
    const graph::NodeId p = dag_.FindNode(parent);
    const graph::NodeId c = dag_.FindNode(child);
    if (p == graph::kInvalidNode || c == graph::kInvalidNode ||
        !dag_.HasEdge(p, c)) {
      return Status::NotFound("no membership " + std::string(parent) +
                              " -> " + std::string(child));
    }
    UCR_RETURN_IF_ERROR(dag_.EraseEdge(p, c, &edit_affected));
  }
  if constexpr (obs::kEnabled) {
    GetMutationMetrics().mutations.Inc();
    GetMutationMetrics().affected_subjects.Observe(edit_affected.size());
  }
  if (obs::AuditLog::Enabled()) {
    // `value` carries the affected-set size: the audit trail shows how
    // far each reorg reached, not just that it happened.
    EmitAdminEvent(add ? obs::AuditEventType::kAddMember
                       : obs::AuditEventType::kRemoveMember,
                   std::string(parent) + " -> " + std::string(child),
                   edit_affected.size());
  }
  if (ReachDirtTracked()) {
    reach_dirty_affected_.insert(reach_dirty_affected_.end(),
                                 edit_affected.begin(), edit_affected.end());
  }
  if (affected != nullptr) {
    affected->insert(affected->end(), edit_affected.begin(),
                     edit_affected.end());
  }
  return Status::OK();
}

bool AccessControlSystem::ReachDirtTracked() const {
  // Dirt only scopes an incremental rebuild, which needs a ready
  // generation to derive from; without one the next refresh is a full
  // Build that ignores it (every WAL replay batch in Open, for one).
  return options_.use_reachability_index && reach_index_ != nullptr &&
         reach_index_->ready();
}

void AccessControlSystem::NoteRightsEdit(graph::NodeId subject) {
  if (!ReachDirtTracked()) return;
  reach_dirty_rows_.push_back(subject);
  // A row edit can re-class `subject`, changing the profile labels of
  // every node that can see it: itself plus its hierarchy descendants
  // (DescendantsOf includes the start node).
  const std::vector<graph::NodeId> scope = dag_.DescendantsOf(subject);
  reach_dirty_affected_.insert(reach_dirty_affected_.end(), scope.begin(),
                               scope.end());
}

void AccessControlSystem::EnsureReachIndexCurrent() {
  if (!options_.use_reachability_index) return;
  // Current = nothing to do. A current-but-not-ready index (budget
  // breach at this very generation) also short-circuits: retrying the
  // same build every query would thrash; the next mutation re-arms it.
  if (reach_index_ != nullptr &&
      reach_index_->dag_generation() == dag_.generation() &&
      reach_index_->acm_epoch() == eacm_.epoch() &&
      reach_index_->node_count() == dag_.node_count()) {
    return;
  }
  if (reach_index_ == nullptr || !reach_index_->ready()) {
    // First build, or recovery from a budget-tripped generation (whose
    // labels cannot seed an incremental pass).
    reach_index_ = graph::ReachabilityIndex::Build(
        dag_, eacm_.epoch(), eacm_.ReachRows(), options_.reachability_options);
  } else {
    std::sort(reach_dirty_affected_.begin(), reach_dirty_affected_.end());
    reach_dirty_affected_.erase(std::unique(reach_dirty_affected_.begin(),
                                            reach_dirty_affected_.end()),
                                reach_dirty_affected_.end());
    std::sort(reach_dirty_rows_.begin(), reach_dirty_rows_.end());
    reach_dirty_rows_.erase(
        std::unique(reach_dirty_rows_.begin(), reach_dirty_rows_.end()),
        reach_dirty_rows_.end());
    reach_index_ = graph::ReachabilityIndex::RebuildIncremental(
        dag_, eacm_.epoch(), reach_index_, reach_dirty_affected_,
        eacm_.ReachRowsFor(reach_dirty_rows_));
  }
  reach_dirty_affected_.clear();
  reach_dirty_rows_.clear();
}

const graph::ReachabilityIndex* AccessControlSystem::reachability_index() {
  EnsureReachIndexCurrent();
  return reach_index_.get();
}

Status AccessControlSystem::AddMembership(
    std::string_view parent, std::string_view child,
    std::vector<graph::NodeId>* affected) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  std::vector<graph::NodeId> edit_affected;
  UCR_RETURN_IF_ERROR(MutateMembership(/*add=*/true, parent, child,
                                       &edit_affected));
  if (snapshot_state_ != nullptr) PublishSnapshotLocked();
  if (affected != nullptr) *affected = std::move(edit_affected);
  return Status::OK();
}

Status AccessControlSystem::RemoveMembership(
    std::string_view parent, std::string_view child,
    std::vector<graph::NodeId>* affected) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  std::vector<graph::NodeId> edit_affected;
  UCR_RETURN_IF_ERROR(MutateMembership(/*add=*/false, parent, child,
                                       &edit_affected));
  if (snapshot_state_ != nullptr) PublishSnapshotLocked();
  if (affected != nullptr) *affected = std::move(edit_affected);
  return Status::OK();
}

Status AccessControlSystem::ApplyMutations(std::span<const MutationOp> ops,
                                           MutationBatchStats* stats) {
  // One lock, one snapshot publication for the whole batch: the ops
  // run against the master state via the unlocked internals (the
  // public mutators would deadlock on the non-recursive write lock
  // and publish N snapshots).
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  std::vector<graph::NodeId> affected;
  size_t applied = 0;
  size_t failed_index = MutationBatchStats::kNone;
  Status status;
  for (const MutationOp& op : ops) {
    switch (op.kind) {
      case MutationOp::Kind::kGrant:
        status = SetMode(op.subject, op.object, op.right,
                         acm::Mode::kPositive);
        break;
      case MutationOp::Kind::kDeny:
        status = SetMode(op.subject, op.object, op.right,
                         acm::Mode::kNegative);
        break;
      case MutationOp::Kind::kRevoke:
        status = RevokeUnlocked(op.subject, op.object, op.right);
        break;
      case MutationOp::Kind::kAddMembership:
        status = MutateMembership(/*add=*/true, op.subject, op.object,
                                  &affected);
        break;
      case MutationOp::Kind::kRemoveMembership:
        status = MutateMembership(/*add=*/false, op.subject, op.object,
                                  &affected);
        break;
    }
    if (!status.ok()) {
      // Name the failing position and kind in the status itself:
      // partial-batch failures were previously opaque (the caller knew
      // *something* failed, not where to resume), and WAL replay needs
      // the applied-prefix boundary to be unambiguous.
      failed_index = applied;
      status = Status(status.code(),
                      "op " + std::to_string(failed_index) + " (" +
                          MutationOpKindName(op.kind) +
                          "): " + status.message());
      break;
    }
    ++applied;
    NoteMutationApplied();
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  // Publish even on early abort: the ops that did apply are master
  // state now, and the snapshot must converge to it.
  size_t dropped = 0;
  if (snapshot_state_ != nullptr && applied > 0) {
    dropped = PublishSnapshotLocked();
  }
  if (stats != nullptr) {
    stats->applied = applied;
    stats->invalidated_entries = dropped;
    stats->failed_index = failed_index;
    stats->affected = std::move(affected);
  }
  return status;
}

Status AccessControlSystem::Revoke(std::string_view subject,
                                   std::string_view object,
                                   std::string_view right) {
  WriterGuard guard(snapshot_state_ != nullptr ? &snapshot_state_->write_mu
                                               : nullptr);
  const Status status = RevokeUnlocked(subject, object, right);
  if (status.ok() && snapshot_state_ != nullptr) PublishSnapshotLocked();
  return status;
}

Status AccessControlSystem::RevokeUnlocked(std::string_view subject,
                                           std::string_view object,
                                           std::string_view right) {
  const graph::NodeId s = dag_.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const acm::ObjectId o, eacm_.FindObject(object));
  UCR_ASSIGN_OR_RETURN(const acm::RightId r, eacm_.FindRight(right));
  const bool erased = eacm_.Erase(s, o, r);
  if (erased) NoteRightsEdit(s);
  if (erased && obs::AuditLog::Enabled()) {
    obs::AuditEvent event;
    event.type = obs::AuditEventType::kRevoke;
    event.has_ids = true;
    event.subject = s;
    event.object = o;
    event.right = r;
    event.SetDetail(std::string(subject) + " " + std::string(object) + " " +
                    std::string(right));
    obs::AuditLog::Global().Emit(event);
  }
  return Status::OK();
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccessByName(
    std::string_view subject, std::string_view object,
    std::string_view right) {
  return CheckAccessByName(subject, object, right, options_.default_strategy);
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccessByName(
    std::string_view subject, std::string_view object, std::string_view right,
    const Strategy& strategy) {
  const graph::NodeId s = dag_.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const acm::ObjectId o, eacm_.FindObject(object));
  UCR_ASSIGN_OR_RETURN(const acm::RightId r, eacm_.FindRight(right));
  return CheckAccess(s, o, r, strategy);
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccess(graph::NodeId subject,
                                                     acm::ObjectId object,
                                                     acm::RightId right,
                                                     const Strategy& strategy) {
  if (subject >= dag_.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  if (object >= eacm_.object_count() || right >= eacm_.right_count()) {
    return Status::OutOfRange("object/right id out of range");
  }
  // Refresh the reachability index (coalescing any pending mutation
  // dirt) so ResolveAccess composes the sink bag from it (DESIGN.md
  // §12); it falls back to the fast path when the index is unusable
  // (kSecondWins, budget breach, option off).
  EnsureReachIndexCurrent();
  if constexpr (obs::kEnabled) GetSystemMetrics().queries.Inc();
  return ResolveAccess(dag_, eacm_, subject, object, right,
                       strategy.Canonical(), FacadeResolveOptions(options_),
                       nullptr, nullptr, reach_index_.get());
}

// ---------------------------------------------------------------------------
// Epoch-pinned snapshot reads (DESIGN.md §11)

void AccessControlSystem::EnableSnapshotReads() {
  if (snapshot_state_ != nullptr) return;
  snapshot_state_ = std::make_unique<SnapshotState>();
  WriterGuard guard(&snapshot_state_->write_mu);
  PublishSnapshotLocked();
}

void AccessControlSystem::NoteMutationApplied() {
  if (snapshot_state_ == nullptr) return;
  ++snapshot_state_->pending_mutations;
  if constexpr (obs::kEnabled) {
    EpochLagGauge().Set(
        static_cast<int64_t>(snapshot_state_->pending_mutations));
  }
}

size_t AccessControlSystem::PublishSnapshotLocked() {
  SnapshotState& state = *snapshot_state_;
  // The current snapshot is the carry-over source. The pin is not
  // strictly needed for safety — only Publish (below, same thread)
  // retires snapshots — but it documents the lifetime and keeps the
  // reader gauge honest about the writer's read.
  const SnapshotManager::ReadPin previous = state.manager.Pin();
  if (previous) {
    state.resolution_capacity =
        NextResolutionCapacity(previous->resolution.size());
  }
  // The published snapshot carries the index generation matching its
  // (dag, eacm) copy, so snapshot readers compose indexed bags
  // lock-free; refreshing here coalesces the batch's mutation dirt
  // into one incremental rebuild per publication.
  EnsureReachIndexCurrent();
  SnapshotBuildStats build_stats;
  std::unique_ptr<const HierarchySnapshot> next = BuildSnapshot(
      dag_, eacm_, options_.default_strategy, options_.propagation_mode,
      state.manager.current_epoch() + 1, previous.get(),
      state.resolution_capacity, reach_index_, &build_stats);
  state.manager.Publish(std::move(next));
  state.pending_mutations = 0;
  if constexpr (obs::kEnabled) EpochLagGauge().Set(0);
  return build_stats.resolution_dropped;
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccessSnapshot(
    graph::NodeId subject, acm::ObjectId object, acm::RightId right) const {
  if (snapshot_state_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot reads not enabled; call EnableSnapshotReads()");
  }
  const SnapshotManager::ReadPin pin = snapshot_state_->manager.Pin();
  return SnapshotResolveAccess(*pin, subject, object, right,
                               pin->default_strategy);
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccessSnapshot(
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& strategy) const {
  if (snapshot_state_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot reads not enabled; call EnableSnapshotReads()");
  }
  const SnapshotManager::ReadPin pin = snapshot_state_->manager.Pin();
  return SnapshotResolveAccess(*pin, subject, object, right, strategy);
}

StatusOr<acm::Mode> AccessControlSystem::CheckAccessSnapshotByName(
    std::string_view subject, std::string_view object,
    std::string_view right) const {
  if (snapshot_state_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot reads not enabled; call EnableSnapshotReads()");
  }
  const SnapshotManager::ReadPin pin = snapshot_state_->manager.Pin();
  const graph::NodeId s = pin->dag.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const acm::ObjectId o, pin->eacm.FindObject(object));
  UCR_ASSIGN_OR_RETURN(const acm::RightId r, pin->eacm.FindRight(right));
  return SnapshotResolveAccess(*pin, s, o, r, pin->default_strategy);
}

}  // namespace ucr::core
