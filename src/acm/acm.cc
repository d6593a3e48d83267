#include "acm/acm.h"

#include <algorithm>
#include <sstream>

#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "util/binio.h"
#include "util/string_util.h"

namespace ucr::acm {

namespace {

/// Counts successful explicit-matrix mutations — the events that bump
/// column epochs and therefore lapse cached derived decisions.
/// Exposed so operators can correlate cache invalidation spikes with
/// policy churn (DESIGN.md §8).
void CountMutation() {
  if constexpr (obs::kEnabled) {
    static obs::Counter& mutations = obs::Registry::Global().GetCounter(
        "ucr_eacm_mutations_total",
        "Explicit ACM mutations (grants, denies, revocations)");
    mutations.Inc();
  }
}

/// Audit trail for column-epoch advances (DESIGN.md §9): every matrix
/// edit lapses the column's cached derived decisions, and the trail
/// records which column and the epoch it reached.
[[gnu::noinline, gnu::cold]] void AuditEpochBump(graph::NodeId subject,
                                                 ObjectId object,
                                                 RightId right,
                                                 uint64_t epoch) {
  obs::AuditEvent event;
  event.type = obs::AuditEventType::kEpochBump;
  event.has_ids = true;
  event.subject = subject;
  event.object = object;
  event.right = right;
  event.value = epoch;
  obs::AuditLog::Global().Emit(event);
}

template <typename IdType>
StatusOr<IdType> Intern(std::string_view name, std::vector<std::string>& names,
                        StringMap<IdType>& ids, const char* kind) {
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  if (names.size() > static_cast<size_t>(UINT16_MAX)) {
    return Status::OutOfRange(std::string(kind) + " id space exhausted");
  }
  const IdType id = static_cast<IdType>(names.size());
  names.emplace_back(name);
  ids.emplace(std::string(name), id);
  return id;
}

/// First entry of a column's sorted `positions` whose subject is not
/// below `subject`.
template <typename Positions>
auto SubjectLowerBound(Positions& positions, graph::NodeId subject) {
  return std::lower_bound(
      positions.begin(), positions.end(), subject,
      [](const auto& p, graph::NodeId s) { return p.first < s; });
}

}  // namespace

StatusOr<ObjectId> ExplicitAcm::InternObject(std::string_view name) {
  return Intern<ObjectId>(name, objects_, object_ids_, "object");
}

StatusOr<RightId> ExplicitAcm::InternRight(std::string_view name) {
  return Intern<RightId>(name, rights_, right_ids_, "right");
}

StatusOr<ObjectId> ExplicitAcm::FindObject(std::string_view name) const {
  auto it = object_ids_.find(name);
  if (it == object_ids_.end()) {
    return Status::NotFound("object '" + std::string(name) + "'");
  }
  return it->second;
}

StatusOr<RightId> ExplicitAcm::FindRight(std::string_view name) const {
  auto it = right_ids_.find(name);
  if (it == right_ids_.end()) {
    return Status::NotFound("right '" + std::string(name) + "'");
  }
  return it->second;
}

const ExplicitAcm::ColumnEntry* ExplicitAcm::ColumnData::Find(
    graph::NodeId subject) const {
  const auto it = SubjectLowerBound(positions, subject);
  if (it == positions.end() || it->first != subject) return nullptr;
  return &entries[it->second];
}

ExplicitAcm::ColumnEntry& ExplicitAcm::ColumnData::FindOrInsert(
    graph::NodeId subject, Mode mode, bool* inserted) {
  const auto it = SubjectLowerBound(positions, subject);
  *inserted = it == positions.end() || it->first != subject;
  if (!*inserted) return entries[it->second];
  positions.insert(it, {subject, static_cast<uint32_t>(entries.size())});
  return entries.emplace_back(ColumnEntry{subject, mode});
}

bool ExplicitAcm::ColumnData::Remove(graph::NodeId subject) {
  const auto it = SubjectLowerBound(positions, subject);
  if (it == positions.end() || it->first != subject) return false;
  const uint32_t hole = it->second;
  positions.erase(it);
  if (hole + 1 != entries.size()) {
    entries[hole] = entries.back();
    SubjectLowerBound(positions, entries[hole].subject)->second = hole;
  }
  entries.pop_back();
  return true;
}

const ExplicitAcm::ColumnData* ExplicitAcm::FindColumn(ObjectId object,
                                                       RightId right) const {
  const auto it = columns_.find(ColumnKey(object, right));
  return it == columns_.end() ? nullptr : it->second.get();
}

ExplicitAcm::ColumnData& ExplicitAcm::MutableColumn(ObjectId object,
                                                    RightId right) {
  std::shared_ptr<ColumnData>& column = columns_[ColumnKey(object, right)];
  if (column == nullptr) {
    column = std::make_shared<ColumnData>();
  } else if (column.use_count() > 1) {
    // Copy-on-write: a column still shared with another copy (a
    // published snapshot's) is cloned so that copy never sees the edit.
    column = std::make_shared<ColumnData>(*column);
  }
  return *column;
}

void ExplicitAcm::BumpEpoch(ColumnData& column, graph::NodeId subject,
                            ObjectId object, RightId right) {
  column.epoch = ++epoch_;
  CountMutation();
  if (obs::AuditLog::Enabled()) {
    AuditEpochBump(subject, object, right, column.epoch);
  }
}

Status ExplicitAcm::Set(graph::NodeId subject, ObjectId object, RightId right,
                        Mode mode) {
  if (const ColumnData* column = FindColumn(object, right)) {
    if (const ColumnEntry* e = column->Find(subject)) {
      if (e->mode == mode) return Status::OK();  // Idempotent.
      return Status::FailedPrecondition(
          "contradicting explicit authorization for subject " +
          std::to_string(subject));
    }
  }
  ColumnData& column = MutableColumn(object, right);
  bool inserted = false;
  column.FindOrInsert(subject, mode, &inserted);
  ++size_;
  BumpEpoch(column, subject, object, right);
  return Status::OK();
}

void ExplicitAcm::Overwrite(graph::NodeId subject, ObjectId object,
                            RightId right, Mode mode) {
  ColumnData& column = MutableColumn(object, right);
  bool inserted = false;
  column.FindOrInsert(subject, mode, &inserted).mode = mode;
  if (inserted) ++size_;
  BumpEpoch(column, subject, object, right);
}

bool ExplicitAcm::Erase(graph::NodeId subject, ObjectId object,
                        RightId right) {
  const ColumnData* existing = FindColumn(object, right);
  if (existing == nullptr || existing->Find(subject) == nullptr) return false;
  ColumnData& column = MutableColumn(object, right);
  column.Remove(subject);
  --size_;
  BumpEpoch(column, subject, object, right);
  return true;
}

uint64_t ExplicitAcm::ColumnEpoch(ObjectId object, RightId right) const {
  const ColumnData* column = FindColumn(object, right);
  return column == nullptr ? 0 : column->epoch;
}

std::optional<Mode> ExplicitAcm::Get(graph::NodeId subject, ObjectId object,
                                     RightId right) const {
  const ColumnData* column = FindColumn(object, right);
  const ColumnEntry* e = column == nullptr ? nullptr : column->Find(subject);
  if (e == nullptr) return std::nullopt;
  return e->mode;
}

std::vector<std::optional<Mode>> ExplicitAcm::ExtractLabels(
    size_t subject_count, ObjectId object, RightId right) const {
  std::vector<std::optional<Mode>> labels(subject_count);
  for (const ColumnEntry& e : Column(object, right)) {
    if (e.subject < subject_count) labels[e.subject] = e.mode;
  }
  return labels;
}

std::span<const ExplicitAcm::ColumnEntry> ExplicitAcm::Column(
    ObjectId object, RightId right) const {
  const ColumnData* column = FindColumn(object, right);
  if (column == nullptr) return {};
  return column->entries;
}

ExplicitAcm::LabelCounts ExplicitAcm::CountLabels(ObjectId object,
                                                  RightId right) const {
  LabelCounts counts;
  for (const ColumnEntry& e : Column(object, right)) {
    if (e.mode == Mode::kPositive) {
      ++counts.positive;
    } else {
      ++counts.negative;
    }
  }
  return counts;
}

std::vector<ExplicitAcm::Entry> ExplicitAcm::SortedEntries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (const auto& [key, column] : columns_) {
    const auto object = static_cast<ObjectId>(key >> 16);
    const auto right = static_cast<RightId>(key & 0xFFFF);
    for (const ColumnEntry& e : column->entries) {
      out.push_back(Entry{e.subject, object, right, e.mode});
    }
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.object != b.object) return a.object < b.object;
    return a.right < b.right;
  });
  return out;
}

std::optional<Mode> ExplicitAcm::ReachRowMode(std::span<const uint64_t> row,
                                              ObjectId object, RightId right) {
  // Contradictions are disallowed, so at most one of the two
  // mode-variants of a column key exists; probe the positive packing
  // and its negative sibling with one lower_bound.
  const uint64_t key = PackReachEntry(object, right, Mode::kPositive);
  const auto it = std::lower_bound(row.begin(), row.end(), key);
  if (it == row.end() || (*it & ~uint64_t{1}) != key) return std::nullopt;
  return (*it & 1) == 0 ? Mode::kPositive : Mode::kNegative;
}

std::vector<uint64_t> ExplicitAcm::ReachRow(graph::NodeId subject) const {
  return ReachRowsFor(std::span<const graph::NodeId>(&subject, 1)).front().row;
}

std::vector<graph::ReachLabeledRow> ExplicitAcm::ReachRows() const {
  std::unordered_map<graph::NodeId, size_t> slot;
  std::vector<graph::ReachLabeledRow> rows;
  for (const auto& [key, column] : columns_) {
    const auto object = static_cast<ObjectId>(key >> 16);
    const auto right = static_cast<RightId>(key & 0xFFFF);
    for (const ColumnEntry& e : column->entries) {
      auto [it, inserted] = slot.try_emplace(e.subject, rows.size());
      if (inserted) rows.push_back(graph::ReachLabeledRow{e.subject, {}});
      rows[it->second].row.push_back(PackReachEntry(object, right, e.mode));
    }
  }
  for (graph::ReachLabeledRow& r : rows) {
    std::sort(r.row.begin(), r.row.end());
  }
  return rows;
}

std::vector<graph::ReachLabeledRow> ExplicitAcm::ReachRowsFor(
    std::span<const graph::NodeId> subjects) const {
  // One subject lookup per (subject, column): a row edit touches few
  // subjects, and the matrix has far fewer columns than entries.
  std::vector<graph::ReachLabeledRow> rows;
  rows.reserve(subjects.size());
  for (const graph::NodeId s : subjects) {
    graph::ReachLabeledRow& r = rows.emplace_back();
    r.node = s;
    for (const auto& [key, column] : columns_) {
      if (const ColumnEntry* e = column->Find(s)) {
        r.row.push_back(PackReachEntry(static_cast<ObjectId>(key >> 16),
                                       static_cast<RightId>(key & 0xFFFF),
                                       e->mode));
      }
    }
    std::sort(r.row.begin(), r.row.end());
  }
  return rows;
}

std::string ToText(const ExplicitAcm& eacm, const graph::Dag& dag) {
  std::ostringstream out;
  out << "# ucr explicit access control matrix: " << eacm.size()
      << " authorizations\n";
  for (const auto& e : eacm.SortedEntries()) {
    out << "auth " << dag.name(e.subject) << " " << eacm.object_name(e.object)
        << " " << eacm.right_name(e.right) << " " << ModeToChar(e.mode)
        << "\n";
  }
  return out.str();
}

StatusOr<ExplicitAcm> FromText(std::string_view text, const graph::Dag& dag) {
  ExplicitAcm eacm;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = Trim(text.substr(pos, end - pos));
    pos = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    std::vector<std::string> fields;
    for (auto& f : Split(line, ' ')) {
      if (!f.empty()) fields.push_back(std::move(f));
    }
    auto error = [&](const std::string& what) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                what);
    };
    if (fields[0] != "auth" || fields.size() != 5) {
      return error("expected 'auth <subject> <object> <right> <+|->'");
    }
    const graph::NodeId subject = dag.FindNode(fields[1]);
    if (subject == graph::kInvalidNode) {
      return error("unknown subject '" + fields[1] + "'");
    }
    auto object = eacm.InternObject(fields[2]);
    if (!object.ok()) return error(object.status().message());
    auto right = eacm.InternRight(fields[3]);
    if (!right.ok()) return error(right.status().message());
    const auto mode =
        fields[4].size() == 1 ? ModeFromChar(fields[4][0]) : std::nullopt;
    if (!mode.has_value()) return error("mode must be '+' or '-'");
    Status s = eacm.Set(subject, *object, *right, *mode);
    if (!s.ok()) return error(s.message());
  }
  return eacm;
}

void AppendAcmBinary(const ExplicitAcm& eacm, std::string* out) {
  bin::AppendU32(static_cast<uint32_t>(eacm.object_count()), out);
  bin::AppendU32(static_cast<uint32_t>(eacm.right_count()), out);
  const std::vector<ExplicitAcm::Entry> entries = eacm.SortedEntries();
  bin::AppendU64(entries.size(), out);
  for (size_t o = 0; o < eacm.object_count(); ++o) {
    bin::AppendString(eacm.object_name(static_cast<ObjectId>(o)), out);
  }
  for (size_t r = 0; r < eacm.right_count(); ++r) {
    bin::AppendString(eacm.right_name(static_cast<RightId>(r)), out);
  }
  for (const auto& entry : entries) {
    bin::AppendU32(entry.subject, out);
    bin::AppendU16(entry.object, out);
    bin::AppendU16(entry.right, out);
    out->push_back(static_cast<char>(entry.mode));
  }
}

StatusOr<ExplicitAcm> AcmFromBinary(std::string_view bytes,
                                    size_t subject_count) {
  bin::Reader reader(bytes);
  uint32_t object_count = 0;
  uint32_t right_count = 0;
  uint64_t entry_count = 0;
  if (!reader.ReadU32(&object_count) || !reader.ReadU32(&right_count) ||
      !reader.ReadU64(&entry_count)) {
    return Status::Corruption("acm section: truncated header");
  }
  // 16-bit id spaces bound the name tables; entries are 9 bytes each,
  // so a plausibility floor rejects OOM-bait counts up front.
  if (object_count > 65536 || right_count > 65536 ||
      entry_count > bytes.size() / 9) {
    return Status::Corruption("acm section: implausible counts");
  }

  ExplicitAcm eacm;
  std::string name;
  for (uint32_t o = 0; o < object_count; ++o) {
    if (!reader.ReadString(&name)) {
      return Status::Corruption("acm section: truncated object table");
    }
    auto id = eacm.InternObject(name);
    if (!id.ok() || id.value() != o) {
      return Status::Corruption("acm section: duplicate object name");
    }
  }
  for (uint32_t r = 0; r < right_count; ++r) {
    if (!reader.ReadString(&name)) {
      return Status::Corruption("acm section: truncated right table");
    }
    auto id = eacm.InternRight(name);
    if (!id.ok() || id.value() != r) {
      return Status::Corruption("acm section: duplicate right name");
    }
  }
  for (uint64_t i = 0; i < entry_count; ++i) {
    uint32_t subject = 0;
    uint16_t object = 0;
    uint16_t right = 0;
    if (!reader.ReadU32(&subject) || !reader.ReadU16(&object) ||
        !reader.ReadU16(&right) || reader.remaining() < 1) {
      return Status::Corruption("acm section: truncated entries");
    }
    std::string_view mode_byte;
    reader.ReadBytes(1, &mode_byte);
    const auto raw_mode = static_cast<unsigned char>(mode_byte[0]);
    if (subject >= subject_count || object >= object_count ||
        right >= right_count || raw_mode > 1) {
      return Status::Corruption("acm section: entry out of range");
    }
    const Status set = eacm.Set(subject, object, right,
                                static_cast<Mode>(raw_mode));
    if (!set.ok()) {
      // Duplicate or contradicting triple — SortedEntries never emits
      // either, so the bytes were tampered with.
      return Status::Corruption("acm section: conflicting duplicate entry");
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("acm section: trailing bytes");
  }
  return eacm;
}

}  // namespace ucr::acm
