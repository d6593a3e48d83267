#include "paper/mixed_system.h"

#include <algorithm>
#include <sstream>

#include "acm/mode.h"
#include "graph/io.h"
#include "util/string_util.h"

namespace ucr::core {

MixedAccessControlSystem::MixedAccessControlSystem(graph::Dag subjects,
                                                   graph::Dag objects)
    : subjects_(std::move(subjects)), objects_(std::move(objects)) {}

StatusOr<size_t> MixedAccessControlSystem::InternRight(
    std::string_view right) {
  auto it = right_ids_.find(std::string(right));
  if (it != right_ids_.end()) return it->second;
  const size_t id = right_names_.size();
  right_names_.emplace_back(right);
  right_ids_.emplace(std::string(right), id);
  entries_.emplace_back();
  return id;
}

Status MixedAccessControlSystem::SetPair(std::string_view subject,
                                         std::string_view object,
                                         std::string_view right,
                                         acm::Mode mode) {
  const graph::NodeId s = subjects_.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  const graph::NodeId o = objects_.FindNode(object);
  if (o == graph::kInvalidNode) {
    return Status::NotFound("unknown object '" + std::string(object) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const size_t r, InternRight(right));
  auto [it, inserted] = entries_[r].try_emplace(NodePair{s, o}, mode);
  if (!inserted) {
    if (it->second == mode) return Status::OK();
    return Status::FailedPrecondition(
        "contradicting explicit authorization on pair (" +
        std::string(subject) + ", " + std::string(object) + ")");
  }
  return Status::OK();
}

Status MixedAccessControlSystem::Grant(std::string_view subject,
                                       std::string_view object,
                                       std::string_view right) {
  return SetPair(subject, object, right, acm::Mode::kPositive);
}

Status MixedAccessControlSystem::DenyAccess(std::string_view subject,
                                            std::string_view object,
                                            std::string_view right) {
  return SetPair(subject, object, right, acm::Mode::kNegative);
}

StatusOr<bool> MixedAccessControlSystem::Revoke(std::string_view subject,
                                                std::string_view object,
                                                std::string_view right) {
  const graph::NodeId s = subjects_.FindNode(subject);
  const graph::NodeId o = objects_.FindNode(object);
  if (s == graph::kInvalidNode || o == graph::kInvalidNode) {
    return Status::NotFound("unknown subject or object");
  }
  auto it = right_ids_.find(std::string(right));
  if (it == right_ids_.end()) {
    return Status::NotFound("unknown right '" + std::string(right) + "'");
  }
  return entries_[it->second].erase(NodePair{s, o}) > 0;
}

size_t MixedAccessControlSystem::authorization_count() const {
  size_t total = 0;
  for (const auto& per_right : entries_) total += per_right.size();
  return total;
}

StatusOr<acm::Mode> MixedAccessControlSystem::CheckAccess(
    std::string_view subject, std::string_view object,
    std::string_view right) {
  return CheckAccess(subject, object, right, strategy_);
}

StatusOr<acm::Mode> MixedAccessControlSystem::CheckAccess(
    std::string_view subject, std::string_view object, std::string_view right,
    const Strategy& strategy, ResolveTrace* trace) {
  const graph::NodeId s = subjects_.FindNode(subject);
  if (s == graph::kInvalidNode) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  const graph::NodeId o = objects_.FindNode(object);
  if (o == graph::kInvalidNode) {
    return Status::NotFound("unknown object '" + std::string(object) + "'");
  }
  UCR_ASSIGN_OR_RETURN(const std::vector<MixedAuthorization> auths,
                       AuthorizationsFor(right));
  UCR_ASSIGN_OR_RETURN(const RightsBag bag,
                       MixedPropagate(subjects_, objects_, auths, s, o));
  return Resolve(bag, strategy, trace);
}

StatusOr<std::vector<MixedAuthorization>>
MixedAccessControlSystem::AuthorizationsFor(std::string_view right) const {
  auto it = right_ids_.find(std::string(right));
  if (it == right_ids_.end()) {
    // A never-granted right is simply empty, not an error: queries on
    // it resolve purely from defaults.
    return std::vector<MixedAuthorization>{};
  }
  std::vector<MixedAuthorization> out;
  out.reserve(entries_[it->second].size());
  for (const auto& [pair, mode] : entries_[it->second]) {
    out.push_back(MixedAuthorization{pair.subject, pair.object, mode});
  }
  return out;
}

std::string SaveMixedSystemToText(const MixedAccessControlSystem& system) {
  std::ostringstream out;
  out << "# ucr mixed system v1\n";
  out << "strategy " << system.strategy().ToMnemonic() << "\n";
  out << "[subjects]\n" << graph::ToEdgeListText(system.subjects());
  out << "[objects]\n" << graph::ToEdgeListText(system.objects());
  out << "[authorizations]\n";
  for (const std::string& right : system.rights()) {
    auto auths = system.AuthorizationsFor(right);
    if (!auths.ok()) continue;  // Unreachable: rights() is authoritative.
    // Deterministic order.
    std::vector<MixedAuthorization> sorted = std::move(auths).value();
    std::sort(sorted.begin(), sorted.end(),
              [](const MixedAuthorization& a, const MixedAuthorization& b) {
                if (a.subject != b.subject) return a.subject < b.subject;
                return a.object < b.object;
              });
    for (const MixedAuthorization& a : sorted) {
      out << "auth " << system.subjects().name(a.subject) << " "
          << system.objects().name(a.object) << " " << right << " "
          << acm::ModeToChar(a.mode) << "\n";
    }
  }
  return out.str();
}

StatusOr<MixedAccessControlSystem> LoadMixedSystemFromText(
    std::string_view text) {
  enum class Section { kPreamble, kSubjects, kObjects, kAuthorizations };
  Section section = Section::kPreamble;
  std::optional<Strategy> strategy;
  std::string subjects_text;
  std::string objects_text;
  std::vector<std::vector<std::string>> auth_rows;

  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view raw = text.substr(pos, end - pos);
    const std::string_view line = Trim(raw);
    pos = end + 1;
    ++line_no;
    auto error = [&](const std::string& what) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                what);
    };
    if (line == "[subjects]") {
      section = Section::kSubjects;
      continue;
    }
    if (line == "[objects]") {
      section = Section::kObjects;
      continue;
    }
    if (line == "[authorizations]") {
      section = Section::kAuthorizations;
      continue;
    }
    switch (section) {
      case Section::kPreamble:
        if (line.empty() || line[0] == '#') break;
        if (StartsWith(line, "strategy ")) {
          auto parsed = ParseStrategy(Trim(line.substr(9)));
          if (!parsed.ok()) return error(parsed.status().message());
          strategy = *parsed;
          break;
        }
        return error("unexpected content before [subjects]");
      case Section::kSubjects:
        subjects_text.append(raw);
        subjects_text.push_back('\n');
        break;
      case Section::kObjects:
        objects_text.append(raw);
        objects_text.push_back('\n');
        break;
      case Section::kAuthorizations: {
        if (line.empty() || line[0] == '#') break;
        std::vector<std::string> fields;
        for (auto& f : Split(line, ' ')) {
          if (!f.empty()) fields.push_back(std::move(f));
        }
        if (fields.size() != 5 || fields[0] != "auth") {
          return error("expected 'auth <subject> <object> <right> <+|->'");
        }
        auth_rows.push_back(std::move(fields));
        break;
      }
    }
  }
  if (section != Section::kAuthorizations) {
    return Status::Corruption(
        "missing [subjects]/[objects]/[authorizations] sections");
  }

  auto subjects = graph::FromEdgeListText(subjects_text);
  if (!subjects.ok()) {
    return Status::Corruption("subjects: " + subjects.status().message());
  }
  auto objects = graph::FromEdgeListText(objects_text);
  if (!objects.ok()) {
    return Status::Corruption("objects: " + objects.status().message());
  }
  MixedAccessControlSystem system(std::move(subjects).value(),
                                  std::move(objects).value());
  if (strategy.has_value()) system.SetStrategy(*strategy);
  for (const auto& fields : auth_rows) {
    const auto mode =
        fields[4].size() == 1 ? acm::ModeFromChar(fields[4][0]) : std::nullopt;
    if (!mode.has_value()) {
      return Status::Corruption("authorizations: mode must be '+' or '-'");
    }
    const Status status =
        *mode == acm::Mode::kPositive
            ? system.Grant(fields[1], fields[2], fields[3])
            : system.DenyAccess(fields[1], fields[2], fields[3]);
    if (!status.ok()) {
      return Status::Corruption("authorizations: " + status.message());
    }
  }
  return system;
}

}  // namespace ucr::core
