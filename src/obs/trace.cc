#include "obs/trace.h"

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
/// for every sample, plus a slow-query event when the latency threshold
/// is breached. Both carry the record by value; the audit writer
/// thread renders their JSON, so the query thread only copies PODs.
[[gnu::noinline, gnu::cold]] void AuditSampledQuery(
    const QueryTraceRecord& record, bool slow) {
  AuditEvent event;
  event.type = AuditEventType::kAccessDecision;
  event.record = record;
  AuditLog::Global().Emit(event);
  if (slow) {
    event.type = AuditEventType::kSlowQuery;
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
      "Tracer-sampled queries at or above the slow-query threshold "
      "(health-engine signal)");
  sampled_total.Inc();
  const bool slow = record.total_ns >= kSlowQueryNs;
  if (slow) slow_total.Inc();
  const uint64_t sequence = ring_.Push(record);
  if (AuditLog::Enabled()) [[unlikely]] {
    AuditSampledQuery(record, slow);
  }
  return sequence;
#else
  (void)record;
  return 0;
#endif
}

Fig4Cells EncodeFig4Cells(const Fig4Derivation& d) {
  // Indexed by ('+' survives) * 2 + ('-' survives).
  static constexpr std::string_view kAuth[] = {"{}", "-", "+", "+,-"};
  static constexpr std::string_view kAuthSet[] = {"{}", "{-}", "{+}",
                                                  "{+,-}"};
  Fig4Cells cells;
  if (d.has_majority) {
    std::snprintf(cells.c1, sizeof(cells.c1), "%llu",
                  static_cast<unsigned long long>(d.c1));
    std::snprintf(cells.c2, sizeof(cells.c2), "%llu",
                  static_cast<unsigned long long>(d.c2));
  } else {
    std::snprintf(cells.c1, sizeof(cells.c1), "n/a");
    std::snprintf(cells.c2, sizeof(cells.c2), "n/a");
  }
  if (!d.auth_computed) {
    cells.auth = cells.auth_set = "n/a";
  } else {
    const size_t i = (d.auth_has_positive ? 2u : 0u) +
                     (d.auth_has_negative ? 1u : 0u);
    cells.auth = kAuth[i];
    cells.auth_set = kAuthSet[i];
  }
  return cells;
}

std::string ToJson(const QueryTraceRecord& r) {
  const Fig4Cells cells = EncodeFig4Cells(r);
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
    out << "\"c1\":" << cells.c1 << ",\"c2\":" << cells.c2 << ",";
  }
  out << "\"auth\":\"" << cells.auth << "\",\"returned_line\":"
      << r.returned_line << ",\"granted\":" << (r.granted ? "true" : "false")
      << "}}";
  return out.str();
}

std::string ToFig4String(const QueryTraceRecord& r) {
  const Fig4Cells cells = EncodeFig4Cells(r);
  const char* mode = r.granted ? "'+'" : "'-'";
  std::ostringstream out;
  out << "Resolve() derivation (paper Fig. 4):\n";
  if (r.resolution_cache_hit) {
    out << "  served from the resolution cache — the derivation below "
           "was recorded when the entry was first computed\n";
  }
  if (r.has_majority) {
    out << "  lines 4-5: majority counters c1 = " << cells.c1
        << " ('+'), c2 = " << cells.c2 << " ('-')\n";
  } else {
    out << "  lines 4-5: skipped (mRule = skip; c1, c2 = n/a)\n";
  }
  if (r.returned_line == 6) {
    out << "  line 6:    strict majority decides -> " << mode << "\n";
    return out.str();
  }
  out << "  line 7:    Auth = " << cells.auth_set << "\n";
  if (r.returned_line == 8) {
    out << "  line 8:    a single mode survives -> " << mode << "\n";
  } else {
    out << "  line 9:    preference rule settles the "
        << (r.auth_has_positive && r.auth_has_negative ? "conflict"
                                                       : "empty set")
        << " -> " << mode << "\n";
  }
  return out.str();
}

std::string FormatFig4Compact(const Fig4Derivation& d) {
  const Fig4Cells cells = EncodeFig4Cells(d);
  std::ostringstream out;
  out << "c1=" << cells.c1 << " c2=" << cells.c2 << " auth=" << cells.auth_set
      << " line=" << d.returned_line << " -> '" << (d.granted ? '+' : '-')
      << "'";
  return out.str();
}

}  // namespace ucr::obs
