#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/audit_log.h"
#include "obs/profiler.h"

namespace ucr::obs {

QueryTracer& QueryTracer::Global() {
  static QueryTracer* global = new QueryTracer();
  return *global;
}

#if UCR_METRICS_ENABLED
namespace {

/// Audit emission for a sampled query (DESIGN.md §9): a decision event
/// for every sample, plus a slow-query event carrying the compact
/// Fig. 4 derivation when the latency threshold is breached. Runs on
/// the query thread, so everything stays on the stack — the events are
/// fixed-size PODs and the derivation is snprintf-formatted.
[[gnu::noinline, gnu::cold]] void AuditSampledQuery(
    const QueryTraceRecord& record) {
  AuditEvent event;
  event.has_ids = true;
  event.subject = record.subject;
  event.object = record.object;
  event.right = record.right;
  event.has_strategy = true;
  event.strategy_index = record.strategy_index;
  event.has_decision = true;
  event.granted = record.granted;
  event.latency_ns = record.total_ns;
  if (AuditLog::log_sampled_decisions()) {
    event.type = AuditEventType::kAccessDecision;
    AuditLog::Global().Emit(event);
  }
  const uint64_t slow_ns = AuditLog::slow_query_threshold_ns();
  if (slow_ns != 0 && record.total_ns >= slow_ns) {
    event.type = AuditEventType::kSlowQuery;
    size_t n = FormatFig4Compact(record, event.detail, sizeof(event.detail));
    // Phase breakdown (DESIGN.md §14): name the phase that made the
    // query slow, right in the audit event. Stack-only, like the rest.
    if (record.phases.TotalNs() != 0 && n + 1 < sizeof(event.detail)) {
      for (size_t i = 0; i < kPhaseCount && n + 1 < sizeof(event.detail);
           ++i) {
        const uint64_t ns = record.phases.ns[i];
        if (ns == 0) continue;
        const int w = std::snprintf(
            event.detail + n, sizeof(event.detail) - n, " %s=%lluns",
            PhaseName(static_cast<Phase>(i)),
            static_cast<unsigned long long>(ns));
        if (w <= 0) break;
        n = std::min(n + static_cast<size_t>(w), sizeof(event.detail) - 1);
      }
    }
    AuditLog::Global().Emit(event);
  }
}

}  // namespace
#endif

uint64_t QueryTracer::Record(const QueryTraceRecord& record) {
#if UCR_METRICS_ENABLED
  static Counter& sampled_total = Registry::Global().GetCounter(
      "ucr_traces_sampled_total", "Query traces recorded by the sampler");
  static Counter& slow_total = Registry::Global().GetCounter(
      "ucr_slow_queries_total",
      "Tracer-sampled queries at or above the tracer's slow-query "
      "threshold (health-engine signal)");
  sampled_total.Inc();
  const uint64_t slow_ns = g_slow_ns.load(std::memory_order_relaxed);
  if (slow_ns != 0 && record.total_ns >= slow_ns) slow_total.Inc();
  uint64_t sequence;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_[next_] = record;
    sequence = recorded_total_.fetch_add(1, std::memory_order_relaxed);
    ring_[next_].sequence = sequence;
    next_ = (next_ + 1) % kRingCapacity;
    if (ring_size_ < kRingCapacity) ++ring_size_;
  }
  if (AuditLog::Enabled()) [[unlikely]] {
    AuditSampledQuery(record);
  }
  return sequence;
#else
  (void)record;
  return 0;
#endif
}

std::vector<QueryTraceRecord> QueryTracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryTraceRecord> out;
  out.reserve(ring_size_);
  const size_t start = (next_ + kRingCapacity - ring_size_) % kRingCapacity;
  for (size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(start + i) % kRingCapacity]);
  }
  return out;
}

void QueryTracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_size_ = 0;
  next_ = 0;
  recorded_total_.store(0, std::memory_order_relaxed);
}

std::string ToJson(const QueryTraceRecord& r) {
  std::ostringstream out;
  out << "{\"sequence\":" << r.sequence << ",\"subject\":" << r.subject
      << ",\"object\":" << r.object << ",\"right\":" << r.right
      << ",\"strategy_index\":" << static_cast<int>(r.strategy_index)
      << ",\"fast_path\":" << (r.fast_path ? "true" : "false")
      << ",\"resolution_cache_hit\":"
      << (r.resolution_cache_hit ? "true" : "false")
      << ",\"extract_ns\":" << r.extract_ns
      << ",\"propagate_ns\":" << r.propagate_ns
      << ",\"resolve_ns\":" << r.resolve_ns << ",\"total_ns\":" << r.total_ns
      << ",\"phases\":{";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (i != 0) out << ",";
    out << "\"" << PhaseName(static_cast<Phase>(i))
        << "_ns\":" << r.phases.ns[i];
  }
  out << "},\"fig4\":{";
  if (r.has_majority) {
    out << "\"c1\":" << r.c1 << ",\"c2\":" << r.c2 << ",";
  }
  out << "\"auth\":\"";
  if (!r.auth_computed) {
    out << "n/a";
  } else if (r.auth_has_positive && r.auth_has_negative) {
    out << "+,-";
  } else if (r.auth_has_positive) {
    out << "+";
  } else if (r.auth_has_negative) {
    out << "-";
  } else {
    out << "{}";
  }
  out << "\",\"returned_line\":" << r.returned_line << ",\"granted\":"
      << (r.granted ? "true" : "false") << "}}";
  return out.str();
}

std::string ToFig4String(const QueryTraceRecord& r) {
  std::ostringstream out;
  out << "Resolve() derivation (paper Fig. 4):\n";
  if (r.resolution_cache_hit) {
    out << "  served from the resolution cache — the derivation below "
           "was recorded when the entry was first computed\n";
  }
  if (r.has_majority) {
    out << "  lines 4-5: majority counters c1 = " << r.c1 << " ('+'), c2 = "
        << r.c2 << " ('-')\n";
  } else {
    out << "  lines 4-5: skipped (mRule = skip; c1, c2 = n/a)\n";
  }
  if (r.returned_line == 6) {
    out << "  line 6:    strict majority decides -> "
        << (r.granted ? "'+'" : "'-'") << "\n";
    return out.str();
  }
  out << "  line 7:    Auth = ";
  if (!r.auth_computed) {
    out << "n/a";
  } else if (r.auth_has_positive && r.auth_has_negative) {
    out << "{+,-}";
  } else if (r.auth_has_positive) {
    out << "{+}";
  } else if (r.auth_has_negative) {
    out << "{-}";
  } else {
    out << "{}";
  }
  out << "\n";
  if (r.returned_line == 8) {
    out << "  line 8:    a single mode survives -> "
        << (r.granted ? "'+'" : "'-'") << "\n";
  } else {
    out << "  line 9:    preference rule settles the "
        << (r.auth_has_positive && r.auth_has_negative ? "conflict"
                                                       : "empty set")
        << " -> " << (r.granted ? "'+'" : "'-'") << "\n";
  }
  return out.str();
}

size_t FormatFig4Compact(const QueryTraceRecord& r, char* buf, size_t size) {
  if (size == 0) return 0;
  char c1[24];
  char c2[24];
  if (r.has_majority) {
    std::snprintf(c1, sizeof(c1), "%llu",
                  static_cast<unsigned long long>(r.c1));
    std::snprintf(c2, sizeof(c2), "%llu",
                  static_cast<unsigned long long>(r.c2));
  } else {
    std::snprintf(c1, sizeof(c1), "n/a");
    std::snprintf(c2, sizeof(c2), "n/a");
  }
  const char* auth = "n/a";
  if (r.auth_computed) {
    if (r.auth_has_positive && r.auth_has_negative) {
      auth = "{+,-}";
    } else if (r.auth_has_positive) {
      auth = "{+}";
    } else if (r.auth_has_negative) {
      auth = "{-}";
    } else {
      auth = "{}";
    }
  }
  const int n = std::snprintf(buf, size, "c1=%s c2=%s auth=%s line=%d -> '%c'",
                              c1, c2, auth, r.returned_line,
                              r.granted ? '+' : '-');
  return n < 0 ? 0 : static_cast<size_t>(n) < size ? static_cast<size_t>(n)
                                                   : size - 1;
}

}  // namespace ucr::obs
