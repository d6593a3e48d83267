#ifndef UCR_ACM_ACM_H_
#define UCR_ACM_ACM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acm/mode.h"
#include "graph/dag.h"
#include "graph/reachability.h"
#include "util/status.h"
#include "util/string_util.h"

namespace ucr::acm {

/// Interned identifier of an object (column of the matrix).
using ObjectId = uint16_t;
/// Interned identifier of a right/operation (read, write, ...).
using RightId = uint16_t;

/// \brief The *explicit* access control matrix (EACM, paper §2).
///
/// Stores only explicitly granted/denied authorizations, keyed by
/// ⟨subject, object, right⟩. The matrix is sparse by design: derived
/// (effective) authorizations are computed on demand by the conflict
/// resolution algorithms in `ucr::core`, never stored here.
///
/// The paper assumes at most one explicit authorization per triple
/// ("duplicates are meaningless and contradicting authorizations can
/// be assumed to be disallowed", §3.3); `Set` therefore *fails* if the
/// triple already holds the opposite mode and is a no-op for an equal
/// one. Use `Overwrite` for administrative updates.
///
/// Object and right names are interned to dense 16-bit ids, capping a
/// matrix at 65,536 objects and rights each (subjects are 32-bit).
/// Every mutation bumps `epoch()`, which resolution caches use for
/// invalidation.
///
/// Entries live per (object, right) column, each column behind its own
/// reference-counted pointer (DESIGN.md §11): copying the matrix costs
/// O(columns), and an edit clones only the column it touches while
/// another copy still shares it. Like `graph::Dag`, copies and their
/// destruction must be ordered with the writer's edits (readers of a
/// shared copy only read).
class ExplicitAcm {
 public:
  ExplicitAcm() = default;

  /// Interns an object name (idempotent). Fails when the 16-bit id
  /// space is exhausted.
  StatusOr<ObjectId> InternObject(std::string_view name);

  /// Interns a right name (idempotent).
  StatusOr<RightId> InternRight(std::string_view name);

  /// Id of an already-interned object, or NotFound.
  StatusOr<ObjectId> FindObject(std::string_view name) const;

  /// Id of an already-interned right, or NotFound.
  StatusOr<RightId> FindRight(std::string_view name) const;

  const std::string& object_name(ObjectId o) const { return objects_[o]; }
  const std::string& right_name(RightId r) const { return rights_[r]; }
  size_t object_count() const { return objects_.size(); }
  size_t right_count() const { return rights_.size(); }

  /// Records ⟨subject, object, right⟩ = mode. No-op if the identical
  /// authorization exists; fails with FailedPrecondition if the triple
  /// holds the opposite mode (contradictions are disallowed).
  Status Set(graph::NodeId subject, ObjectId object, RightId right, Mode mode);

  /// Unconditionally (re)writes the triple's mode.
  void Overwrite(graph::NodeId subject, ObjectId object, RightId right,
                 Mode mode);

  /// Removes an explicit authorization. Returns false if absent.
  bool Erase(graph::NodeId subject, ObjectId object, RightId right);

  /// The explicit mode of a triple, if any.
  std::optional<Mode> Get(graph::NodeId subject, ObjectId object,
                          RightId right) const;

  /// Number of explicit authorizations stored.
  size_t size() const { return size_; }

  /// Monotonic counter bumped by every successful mutation.
  uint64_t epoch() const { return epoch_; }

  /// Monotonic counter bumped only by mutations touching this
  /// (object, right) column. Lets caches of derived decisions survive
  /// updates to unrelated columns (finer than the paper's wholesale
  /// invalidation concern in §5). A column never mutated reports 0.
  uint64_t ColumnEpoch(ObjectId object, RightId right) const;

  /// \brief Dense per-subject label array for one (object, right) pair.
  ///
  /// `labels[v]` is the explicit mode of subject `v`, or nullopt. This
  /// is the "appropriately extracted subset of the matrix" the paper's
  /// §2 says a practical system feeds to the resolution algorithm.
  /// `subject_count` is the node count of the subject hierarchy.
  std::vector<std::optional<Mode>> ExtractLabels(size_t subject_count,
                                                 ObjectId object,
                                                 RightId right) const;

  /// One explicit authorization of a (object, right) column.
  struct ColumnEntry {
    graph::NodeId subject;
    Mode mode;
  };

  /// \brief Sparse view of one (object, right) column: exactly the
  /// explicit entries, one per labeled subject, in insertion order.
  ///
  /// This is the allocation-free counterpart of `ExtractLabels` for
  /// the hot path (DESIGN.md §7): iterating it costs O(column size)
  /// instead of materializing a node-count-sized dense vector.
  /// Subjects are unique within a column; entries may reference
  /// subjects outside a smaller hierarchy — consumers apply the same
  /// `subject < subject_count` guard `ExtractLabels` does. The span is
  /// invalidated by any mutation of the matrix.
  std::span<const ColumnEntry> Column(ObjectId object, RightId right) const;

  /// Counts explicit '+' and '-' authorizations for one (object, right).
  struct LabelCounts {
    size_t positive = 0;
    size_t negative = 0;
  };
  LabelCounts CountLabels(ObjectId object, RightId right) const;

  /// One stored authorization, for iteration and serialization.
  struct Entry {
    graph::NodeId subject;
    ObjectId object;
    RightId right;
    Mode mode;
  };

  /// All entries, sorted by (subject, object, right) for determinism.
  std::vector<Entry> SortedEntries() const;

  // -- Reachability-index row views (DESIGN.md §12) ------------------
  //
  // The reachability index folds subjects whose *entire* explicit rows
  // match into one supernode class. The graph layer treats rows as
  // opaque sorted uint64 keys; this is the packing.

  /// Packs one ⟨object, right, mode⟩ into the opaque row key the
  /// reachability index compares. Mode sits in the low bit so a row
  /// stays sorted by (object, right) with the grant/deny distinction
  /// folded in.
  static uint64_t PackReachEntry(ObjectId object, RightId right, Mode mode) {
    return (static_cast<uint64_t>(object) << 17) |
           (static_cast<uint64_t>(right) << 1) | static_cast<uint64_t>(mode);
  }

  /// The explicit mode of column (object, right) within a packed row,
  /// if present. O(log row) — rows are sorted and at most two keys
  /// (one per mode) can match a column prefix, but contradictions are
  /// disallowed so at most one exists.
  static std::optional<Mode> ReachRowMode(std::span<const uint64_t> row,
                                          ObjectId object, RightId right);

  /// Packed row of one subject (sorted ascending; empty if unlabeled).
  std::vector<uint64_t> ReachRow(graph::NodeId subject) const;

  /// Packed rows of every labeled subject, one matrix scan. Order is
  /// unspecified (index construction does not depend on it).
  std::vector<graph::ReachLabeledRow> ReachRows() const;

  /// Packed rows for exactly `subjects`, one per listed id (including
  /// now-empty ones, so incremental index rebuilds observe
  /// un-labelings). One subject lookup per column and subject.
  std::vector<graph::ReachLabeledRow> ReachRowsFor(
      std::span<const graph::NodeId> subjects) const;

 private:
  /// One (object, right) column: its entries in insertion order (an
  /// erase moves the last entry into the hole), a subject lookup, and
  /// the column epoch. Flat vectors, so a clone is two copies.
  struct ColumnData {
    std::vector<ColumnEntry> entries;
    /// (subject, position in `entries`), sorted by subject.
    std::vector<std::pair<graph::NodeId, uint32_t>> positions;
    uint64_t epoch = 0;

    /// Entry of `subject`, or null.
    const ColumnEntry* Find(graph::NodeId subject) const;
    /// Entry of `subject`, appended with `mode` if absent.
    ColumnEntry& FindOrInsert(graph::NodeId subject, Mode mode,
                              bool* inserted);
    /// Removes `subject`'s entry; false if absent.
    bool Remove(graph::NodeId subject);
  };

  static uint32_t ColumnKey(ObjectId o, RightId r) {
    return (static_cast<uint32_t>(o) << 16) | static_cast<uint32_t>(r);
  }
  /// The column, or null if it was never written.
  const ColumnData* FindColumn(ObjectId object, RightId right) const;
  /// The column, created empty or cloned from a shared one first.
  ColumnData& MutableColumn(ObjectId object, RightId right);
  /// Advances the matrix epoch and stamps `column` with it; counts and
  /// audits the mutation.
  void BumpEpoch(ColumnData& column, graph::NodeId subject, ObjectId object,
                 RightId right);

  std::vector<std::string> objects_;
  std::vector<std::string> rights_;
  StringMap<ObjectId> object_ids_;
  StringMap<RightId> right_ids_;
  std::unordered_map<uint32_t, std::shared_ptr<ColumnData>> columns_;
  size_t size_ = 0;
  uint64_t epoch_ = 0;
};

/// \brief Serializes the matrix as text, one `auth <subject-name>
/// <object> <right> <+|->` line per entry (sorted, deterministic).
/// Subject names come from `dag`.
std::string ToText(const ExplicitAcm& eacm, const graph::Dag& dag);

/// Parses the text format produced by `ToText`; subjects are resolved
/// against `dag` by name.
StatusOr<ExplicitAcm> FromText(std::string_view text, const graph::Dag& dag);

/// \brief Appends the matrix in the binary snapshot layout: object and
/// right name tables *in intern order* (so every interned id survives a
/// save/load cycle byte-for-byte — cached column epochs, packed reach
/// rows, and WAL replay all key on those ids), then the entries sorted
/// by (subject, object, right).
void AppendAcmBinary(const ExplicitAcm& eacm, std::string* out);

/// \brief Parses `AppendAcmBinary` output. `subject_count` is the node
/// count of the subject hierarchy the matrix accompanies; entries
/// referencing subjects at or beyond it — like out-of-range object or
/// right ids, contradictions, or truncation — are `kCorruption`, never
/// UB. The bytes are untrusted (fuzzed under asan-ubsan).
StatusOr<ExplicitAcm> AcmFromBinary(std::string_view bytes,
                                    size_t subject_count);

}  // namespace ucr::acm

#endif  // UCR_ACM_ACM_H_
