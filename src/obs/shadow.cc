#include "obs/shadow.h"

#include "obs/audit_log.h"

namespace ucr::obs {

namespace {

#if UCR_METRICS_ENABLED
struct ShadowMetrics {
  Counter& checks = Registry::Global().GetCounter(
      "ucr_shadow_checks_total",
      "Fast-path queries re-resolved by the classic shadow oracle");
  Counter& mismatches = Registry::Global().GetCounter(
      "ucr_shadow_mismatch_total",
      "Shadow comparisons where the fast path diverged from the oracle");
};

ShadowMetrics& GetShadowMetrics() {
  static ShadowMetrics* metrics = new ShadowMetrics();
  return *metrics;
}
#endif

}  // namespace

ShadowVerifier& ShadowVerifier::Global() {
  // Leaked on purpose, like Registry::Global.
  static ShadowVerifier* global = new ShadowVerifier();
  return *global;
}

void ShadowVerifier::RecordCheck() {
  checks_.fetch_add(1, std::memory_order_relaxed);
#if UCR_METRICS_ENABLED
  GetShadowMetrics().checks.Inc();
#endif
}

void ShadowVerifier::RecordMismatch(const Mismatch& mismatch) {
  ring_.Push(mismatch);
#if UCR_METRICS_ENABLED
  GetShadowMetrics().mismatches.Inc();
  if (AuditLog::Enabled()) {
    AuditEvent event;
    event.type = AuditEventType::kShadowMismatch;
    static_cast<Fig4Derivation&>(event.record) = mismatch.fast;
    event.record.subject = mismatch.subject;
    event.record.object = mismatch.object;
    event.record.right = mismatch.right;
    event.record.strategy_index = mismatch.strategy_index;
    event.oracle = mismatch.oracle;
    AuditLog::Global().Emit(event);
  }
#endif
}

void ShadowVerifier::Clear() {
  ring_.Clear();
  checks_.store(0, std::memory_order_relaxed);
}

}  // namespace ucr::obs
