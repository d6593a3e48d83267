#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>

namespace ucr::obs {

namespace internal {

size_t AssignThreadSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kSlots;
}

int& AllocExclusionDepth() {
  // Trivially initialized: no dynamic-init guard, so the counting
  // allocator may call this from any allocation context.
  thread_local int depth = 0;
  return depth;
}

}  // namespace internal

namespace {

/// HELP text is a single line in the exposition format; backslashes
/// and newlines must be escaped (the only two escapes the format
/// defines for HELP).
std::string EscapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  const auto tail = [&](char c) { return head(c) || (c >= '0' && c <= '9'); };
  if (!head(name.front())) return false;
  for (const char c : name.substr(1)) {
    if (!tail(c)) return false;
  }
  return true;
}

/// One registered metric: its help string plus exactly one of the
/// three metric objects. unique_ptr keeps addresses stable across map
/// rehashes, which is what lets call sites cache references.
struct Registry::Entry {
  std::string help;
  int kind = 0;  // 0 = counter, 1 = gauge, 2 = histogram.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// Ordered map so exposition output is deterministic (sorted by name),
/// which keeps golden tests and diffs stable.
struct Registry::Impl {
  std::map<std::string, Entry, std::less<>> entries;
};

Registry& Registry::Global() {
  // Leaked on purpose: see the class comment.
  static Registry* global = new Registry();
  return *global;
}

Registry::~Registry() { delete impl_; }

Registry::Entry* Registry::FindOrCreate(std::string_view name,
                                        std::string_view help, int kind) {
  if (!IsValidMetricName(name)) {
    // A malformed name is a programming error at an interning call
    // site; letting it through would corrupt every scrape of the
    // exposition endpoint, so fail loudly and immediately.
    std::fprintf(stderr, "ucr/obs: invalid metric name '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (impl_ == nullptr) impl_ = new Impl();
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Entry entry;
    entry.help = std::string(help);
    entry.kind = kind;
    switch (kind) {
      case 0:
        entry.counter = std::make_unique<Counter>();
        break;
      case 1:
        entry.gauge = std::make_unique<Gauge>();
        break;
      default:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = impl_->entries.emplace(std::string(name), std::move(entry)).first;
  }
  // A name re-registered as a different kind is a programming error;
  // return the existing entry (the caller's Get* will die on the null
  // pointer in tests immediately) rather than silently aliasing.
  return &it->second;
}

Counter& Registry::GetCounter(std::string_view name, std::string_view help) {
  return *FindOrCreate(name, help, 0)->counter;
}

Gauge& Registry::GetGauge(std::string_view name, std::string_view help) {
  return *FindOrCreate(name, help, 1)->gauge;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view help) {
  return *FindOrCreate(name, help, 2)->histogram;
}

size_t Registry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return impl_ == nullptr ? 0 : impl_->entries.size();
}

std::vector<Registry::CollectedMetric> Registry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CollectedMetric> out;
  if (impl_ == nullptr) return out;
  out.reserve(impl_->entries.size());
  for (const auto& [name, entry] : impl_->entries) {
    CollectedMetric m;
    m.name = name;
    m.kind = entry.kind;
    switch (entry.kind) {
      case 0:
        m.counter = entry.counter->Value();
        break;
      case 1:
        m.gauge = entry.gauge->Value();
        break;
      default:
        m.histogram = entry.histogram->Snap();
        m.histogram_handle = entry.histogram.get();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  if (impl_ == nullptr) return out.str();
  for (const auto& [name, entry] : impl_->entries) {
    out << "# HELP " << name << " " << EscapeHelp(entry.help) << "\n";
    switch (entry.kind) {
      case 0:
        out << "# TYPE " << name << " counter\n"
            << name << " " << entry.counter->Value() << "\n";
        break;
      case 1:
        out << "# TYPE " << name << " gauge\n"
            << name << " " << entry.gauge->Value() << "\n";
        break;
      default: {
        const Histogram::Snapshot snap = entry.histogram->Snap();
        out << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
          if (snap.counts[i] == 0) continue;  // Sparse: only hit buckets.
          cumulative += snap.counts[i];
          out << name << "_bucket{le=\""
              << Histogram::BucketUpperBound(i) << "\"} " << cumulative
              << "\n";
        }
        // The +Inf bucket is mandatory in the exposition format, so it
        // is emitted even when no finite bucket was hit.
        out << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
        out << name << "_sum " << snap.sum << "\n"
            << name << "_count " << snap.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string Registry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters;
  std::ostringstream gauges;
  std::ostringstream histograms;
  bool first_counter = true;
  bool first_gauge = true;
  bool first_histogram = true;
  if (impl_ != nullptr) {
    for (const auto& [name, entry] : impl_->entries) {
      switch (entry.kind) {
        case 0:
          counters << (first_counter ? "" : ",") << "\"" << name
                   << "\":" << entry.counter->Value();
          first_counter = false;
          break;
        case 1:
          gauges << (first_gauge ? "" : ",") << "\"" << name
                 << "\":" << entry.gauge->Value();
          first_gauge = false;
          break;
        default: {
          const Histogram::Snapshot snap = entry.histogram->Snap();
          histograms << (first_histogram ? "" : ",") << "\"" << name
                     << "\":{\"count\":" << snap.count
                     << ",\"sum\":" << snap.sum << ",\"buckets\":[";
          bool first_bucket = true;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            if (snap.counts[i] == 0) continue;
            histograms << (first_bucket ? "" : ",") << "{\"le\":";
            if (i == Histogram::kBuckets - 1) {
              histograms << "\"+Inf\"";
            } else {
              histograms << Histogram::BucketUpperBound(i);
            }
            histograms << ",\"count\":" << snap.counts[i] << "}";
            first_bucket = false;
          }
          histograms << "]";
          // Exemplars ride along only when captured, so snapshots of
          // exemplar-free histograms keep their historical shape.
          const auto exemplars = entry.histogram->SnapExemplars();
          bool first_exemplar = true;
          for (const Histogram::Exemplar& e : exemplars) {
            if (!e.valid) continue;
            histograms << (first_exemplar ? ",\"exemplars\":[" : ",")
                       << "{\"value\":" << e.value
                       << ",\"trace_sequence\":" << e.trace_sequence
                       << ",\"subject\":" << e.subject
                       << ",\"object\":" << e.object
                       << ",\"right\":" << e.right << "}";
            first_exemplar = false;
          }
          if (!first_exemplar) histograms << "]";
          histograms << "}";
          first_histogram = false;
          break;
        }
      }
    }
  }
  std::ostringstream out;
  out << "{\"counters\":{" << counters.str() << "},\"gauges\":{"
      << gauges.str() << "},\"histograms\":{" << histograms.str() << "}}";
  return out.str();
}

bool JsonLooksValid(std::string_view json) {
  if (json.empty() || json.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

LockWaitMetrics& GetLockWaitMetrics() {
  static LockWaitMetrics* metrics = new LockWaitMetrics{
      Registry::Global().GetCounter(
          "ucr_lock_acquisitions_total",
          "Reader-path lock acquisitions (any lock a concurrent query "
          "can take)"),
      Registry::Global().GetCounter(
          "ucr_lock_contended_total",
          "Reader-path lock acquisitions that had to wait"),
      Registry::Global().GetHistogram(
          "ucr_lock_wait_ns", "Contended reader-path lock wait (ns)")};
  return *metrics;
}

LockWaitMetrics& GetWriteLockMetrics() {
  static LockWaitMetrics* metrics = new LockWaitMetrics{
      Registry::Global().GetCounter(
          "ucr_write_lock_acquisitions_total",
          "Write-path lock acquisitions (mutators and snapshot "
          "publication)"),
      Registry::Global().GetCounter(
          "ucr_write_lock_contended_total",
          "Write-path lock acquisitions that had to wait"),
      Registry::Global().GetHistogram(
          "ucr_write_lock_wait_ns", "Contended write-path lock wait (ns)")};
  return *metrics;
}

}  // namespace ucr::obs
