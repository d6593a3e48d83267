#include "core/resolve.h"

#include <algorithm>
#include <vector>

#include "core/flat_propagate.h"
#include "graph/ancestor_subgraph.h"
#include "graph/scratch_subgraph.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "obs/trace.h"

namespace ucr::core {

namespace {

using acm::Mode;
using acm::PropagatedMode;

/// End-to-end query telemetry (DESIGN.md §8). Counter/histogram
/// handles are interned once; per-query cost is two clock reads, one
/// sharded increment, and one sharded observe — all lock-free and
/// allocation-free, so the §7 zero-allocation bound holds with
/// metrics ON (asserted by tests/hotpath_alloc_test.cc). Direct calls
/// and snapshot reads report their latency and indexed queries under
/// their own names (`QuerySurface`).
struct ResolveMetrics {
  obs::Counter& indexed = obs::Registry::Global().GetCounter(
      "ucr_resolve_indexed_queries_total",
      "ResolveAccess queries answered by the reachability index");
  obs::Counter& snapshot_indexed = obs::Registry::Global().GetCounter(
      "ucr_snapshot_indexed_queries_total",
      "Snapshot queries whose sink bag was composed from the reachability "
      "index (no sub-graph extraction)");
  obs::Histogram& compressed_entries = obs::Registry::Global().GetHistogram(
      "ucr_reach_compressed_entries",
      "Composed-bag entries per indexed query (log2 buckets)");
  obs::Histogram& pruned_nodes = obs::Registry::Global().GetHistogram(
      "ucr_reach_pruned_nodes",
      "Sub-graph members skipped per indexed query (shadow-sampled)");
  obs::Counter& fast = obs::Registry::Global().GetCounter(
      "ucr_resolve_fast_queries_total",
      "ResolveAccess queries answered by the allocation-free hot path");
  obs::Counter& classic = obs::Registry::Global().GetCounter(
      "ucr_resolve_classic_queries_total",
      "ResolveAccess queries answered by the classic aggregated engine");
  obs::Histogram& latency = obs::Registry::Global().GetHistogram(
      "ucr_resolve_latency_ns", "End-to-end ResolveAccess latency (ns)");
  obs::Histogram& snapshot_latency = obs::Registry::Global().GetHistogram(
      "ucr_snapshot_query_latency_ns",
      "SnapshotResolveAccess latency, table hits included (ns)");
};

ResolveMetrics& GetResolveMetrics() {
  static ResolveMetrics* metrics = new ResolveMetrics();
  return *metrics;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// Copies a ResolveTrace's Fig. 4 fields into the obs-layer derivation
/// (the shape the tracer, the shadow verifier and every renderer use).
obs::Fig4Derivation Fig4Of(const ResolveTrace& trace) {
  obs::Fig4Derivation d;
  d.has_majority = trace.c1.has_value();
  d.c1 = trace.c1.value_or(0);
  d.c2 = trace.c2.value_or(0);
  d.auth_computed = trace.auth_computed;
  d.auth_has_positive = trace.auth_has_positive;
  d.auth_has_negative = trace.auth_has_negative;
  d.returned_line = trace.returned_line;
  d.granted = trace.result == Mode::kPositive;
  return d;
}

/// A (dis, mode) group after the default rule has been applied: only
/// '+' and '-' survive (Fig. 4 lines 2–3).
struct WorkingEntry {
  uint32_t dis;
  Mode mode;
  uint64_t multiplicity;
};

/// Applies the default rule: drops 'd' groups (dRule = "0") or
/// rewrites them to the default mode, merging with any equal-distance
/// explicit group.
std::vector<WorkingEntry> ApplyDefaultRule(const RightsBag& all_rights,
                                           DefaultRule rule) {
  std::vector<WorkingEntry> out;
  for (const RightsEntry& e : all_rights.entries()) {
    Mode mode;
    if (e.mode == PropagatedMode::kDefault) {
      if (rule == DefaultRule::kNone) continue;  // σ mode <> 'd' (line 2).
      mode = rule == DefaultRule::kPositive ? Mode::kPositive
                                            : Mode::kNegative;
    } else {
      mode = e.mode == PropagatedMode::kPositive ? Mode::kPositive
                                                 : Mode::kNegative;
    }
    out.push_back(WorkingEntry{e.dis, mode, e.multiplicity});
  }
  // Merge groups made equal by the rewrite (bag union of multiplicities).
  std::sort(out.begin(), out.end(),
            [](const WorkingEntry& a, const WorkingEntry& b) {
              if (a.dis != b.dis) return a.dis < b.dis;
              return a.mode < b.mode;
            });
  size_t w = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (w > 0 && out[w - 1].dis == out[i].dis &&
        out[w - 1].mode == out[i].mode) {
      out[w - 1].multiplicity =
          SatAdd(out[w - 1].multiplicity, out[i].multiplicity);
    } else {
      out[w++] = out[i];
    }
  }
  out.resize(w);
  return out;
}

/// σ dis = lRule(dis): the locality filter (Fig. 4 lines 5 and 7).
std::vector<WorkingEntry> ApplyLocalityFilter(
    const std::vector<WorkingEntry>& entries, LocalityRule rule) {
  if (rule == LocalityRule::kIdentity || entries.empty()) return entries;
  uint32_t target = entries.front().dis;
  for (const WorkingEntry& e : entries) {
    target = rule == LocalityRule::kMostSpecific ? std::min(target, e.dis)
                                                 : std::max(target, e.dis);
  }
  std::vector<WorkingEntry> out;
  for (const WorkingEntry& e : entries) {
    if (e.dis == target) out.push_back(e);
  }
  return out;
}

struct Counts {
  uint64_t positive = 0;
  uint64_t negative = 0;
};

Counts CountModes(const std::vector<WorkingEntry>& entries) {
  Counts c;
  for (const WorkingEntry& e : entries) {
    if (e.mode == Mode::kPositive) {
      c.positive = SatAdd(c.positive, e.multiplicity);
    } else {
      c.negative = SatAdd(c.negative, e.multiplicity);
    }
  }
  return c;
}

/// Streaming counterpart of ApplyDefaultRule for a single entry:
/// nullopt means the entry is dropped (σ mode <> 'd' with dRule = 0).
std::optional<Mode> EffectiveModeOf(const RightsEntry& e, DefaultRule rule) {
  if (e.mode == PropagatedMode::kDefault) {
    if (rule == DefaultRule::kNone) return std::nullopt;
    return rule == DefaultRule::kPositive ? Mode::kPositive : Mode::kNegative;
  }
  return e.mode == PropagatedMode::kPositive ? Mode::kPositive
                                             : Mode::kNegative;
}

/// Per-thread scratch for `ComposeIndexedSinkBag`: a per-class seed
/// cache (stamped per composition, so each class's row is probed once
/// per query however many label entries reference it) plus the output
/// bag buffer. Buffers only grow — steady state allocates nothing.
struct ComposeScratch {
  uint64_t epoch = 0;
  std::vector<uint64_t> stamp;      ///< Per-class: epoch of `seed`.
  std::vector<int8_t> seed;         ///< Encoded per-class column seed.
  std::vector<RightsEntry> bag;

  static ComposeScratch& ThreadLocal() {
    thread_local ComposeScratch scratch;
    return scratch;
  }
};

/// Encoded column seed of one supernode class: no seed, or a
/// propagated mode (the int8 domain of `ComposeScratch::seed`).
constexpr int8_t kSeedNone = -1;

int8_t EncodeSeed(std::optional<PropagatedMode> mode) {
  return mode.has_value() ? static_cast<int8_t>(*mode) : kSeedNone;
}

/// The mode class `cls` seeds into column (object, right), per the
/// `FlatPropagator::SeedOf` rules the class key captures: its row's
/// explicit entry if present, else 'd' for root classes, else nothing.
/// Under kFirstWins only root classes seed (every non-root's
/// clean-path count is zero because roots always carry a seed).
std::optional<PropagatedMode> ClassSeed(
    const graph::ReachabilityIndex::ClassInfo& info, acm::ObjectId object,
    acm::RightId right, PropagationMode pmode) {
  if (pmode == PropagationMode::kFirstWins && !info.is_root) {
    return std::nullopt;
  }
  const std::optional<Mode> explicit_mode =
      acm::ExplicitAcm::ReachRowMode(info.row, object, right);
  if (explicit_mode.has_value()) return acm::ToPropagated(*explicit_mode);
  if (info.is_root) return PropagatedMode::kDefault;
  return std::nullopt;
}

}  // namespace

bool ReachIndexUsable(const graph::ReachabilityIndex* index,
                      const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                      const ResolveAccessOptions& options) {
  return index != nullptr && options.use_reachability_index &&
         index->ready() &&
         options.propagation_mode != PropagationMode::kSecondWins &&
         index->dag_generation() == dag.generation() &&
         index->acm_epoch() == eacm.epoch() &&
         index->node_count() == dag.node_count();
}

std::span<const RightsEntry> ComposeIndexedSinkBag(
    const graph::ReachabilityIndex& index, graph::NodeId subject,
    acm::ObjectId object, acm::RightId right, PropagationMode mode) {
  // Phase attribution (DESIGN.md §14): composition replaces both
  // extraction and propagation on the indexed path.
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kCompose);
  using ClassId = graph::ReachabilityIndex::ClassId;
  ComposeScratch& scratch = ComposeScratch::ThreadLocal();
  if (scratch.stamp.size() < index.class_count()) {
    scratch.stamp.resize(index.class_count(), 0);
    scratch.seed.resize(index.class_count(), kSeedNone);
  }
  const uint64_t epoch = ++scratch.epoch;
  const auto seed_of = [&](ClassId cls) {
    if (scratch.stamp[cls] != epoch) {
      scratch.stamp[cls] = epoch;
      scratch.seed[cls] =
          EncodeSeed(ClassSeed(index.class_info(cls), object, right, mode));
    }
    return scratch.seed[cls];
  };

  scratch.bag.clear();
  // The subject's own distance-0 seed. Interior subjects (unlabeled
  // non-roots) never seed; under kFirstWins a non-root's seed has
  // clean-path multiplicity zero, which `ClassSeed` already encodes.
  const ClassId own = index.class_of(subject);
  if (own != graph::ReachabilityIndex::kInteriorClass) {
    const int8_t s = seed_of(own);
    if (s != kSeedNone) {
      scratch.bag.push_back(
          RightsEntry{0, static_cast<PropagatedMode>(s), 1});
    }
  }
  // One (dis, mode, count) contribution per label entry whose class
  // seeds this column.
  for (const graph::ReachabilityIndex::ProfileEntry& e :
       index.label(subject)) {
    const int8_t s = seed_of(e.cls);
    if (s == kSeedNone) continue;
    scratch.bag.push_back(
        RightsEntry{e.dis, static_cast<PropagatedMode>(s), e.count});
  }
  // Normalize: sort by (dis, mode) and merge classes that landed on
  // the same group with saturating adds — associativity makes the
  // result equal to the engines' progressively-merged multiplicities.
  std::sort(scratch.bag.begin(), scratch.bag.end(),
            [](const RightsEntry& a, const RightsEntry& b) {
              if (a.dis != b.dis) return a.dis < b.dis;
              return a.mode < b.mode;
            });
  size_t w = 0;
  for (size_t i = 0; i < scratch.bag.size(); ++i) {
    if (w > 0 && scratch.bag[w - 1].dis == scratch.bag[i].dis &&
        scratch.bag[w - 1].mode == scratch.bag[i].mode) {
      scratch.bag[w - 1].multiplicity = SatAdd(
          scratch.bag[w - 1].multiplicity, scratch.bag[i].multiplicity);
    } else {
      scratch.bag[w++] = scratch.bag[i];
    }
  }
  scratch.bag.resize(w);
  return scratch.bag;
}

std::string ResolveTrace::AuthToString() const {
  return std::string(obs::EncodeFig4Cells(Fig4Of(*this)).auth);
}

std::string ResolveTrace::C1ToString() const {
  return obs::EncodeFig4Cells(Fig4Of(*this)).c1;
}

std::string ResolveTrace::C2ToString() const {
  return obs::EncodeFig4Cells(Fig4Of(*this)).c2;
}

acm::Mode Resolve(const RightsBag& all_rights, const Strategy& strategy,
                  ResolveTrace* trace) {
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kResolve);
  const Strategy s = strategy.Canonical();
  ResolveTrace local_trace;
  ResolveTrace& t = trace != nullptr ? *trace : local_trace;
  t = ResolveTrace{};

  const Mode preferred = s.preference_rule == PreferenceRule::kPositive
                             ? Mode::kPositive
                             : Mode::kNegative;

  // Lines 1–3: propagation already happened; apply the default rule.
  const std::vector<WorkingEntry> working =
      ApplyDefaultRule(all_rights, s.default_rule);

  // Lines 4–6: the majority policy, counting either the whole bag
  // ("before", mnemonics M[LG]?P) or the locality-filtered bag
  // ("after", mnemonics [LG]MP). A strict majority decides.
  if (s.majority_rule != MajorityRule::kSkip) {
    const Counts counts =
        s.majority_rule == MajorityRule::kBefore
            ? CountModes(working)
            : CountModes(ApplyLocalityFilter(working, s.locality_rule));
    t.c1 = counts.positive;
    t.c2 = counts.negative;
    if (counts.positive > counts.negative) {
      t.result = Mode::kPositive;
      t.returned_line = 6;
      return t.result;
    }
    if (counts.negative > counts.positive) {
      t.result = Mode::kNegative;
      t.returned_line = 6;
      return t.result;
    }
  }

  // Lines 7–8: locality filter, then the Auth set of surviving modes.
  const std::vector<WorkingEntry> surviving =
      ApplyLocalityFilter(working, s.locality_rule);
  t.auth_computed = true;
  for (const WorkingEntry& e : surviving) {
    if (e.mode == Mode::kPositive) t.auth_has_positive = true;
    if (e.mode == Mode::kNegative) t.auth_has_negative = true;
  }
  if (t.auth_has_positive != t.auth_has_negative) {
    t.result = t.auth_has_positive ? Mode::kPositive : Mode::kNegative;
    t.returned_line = 8;
    return t.result;
  }

  // Line 9: the preference rule settles everything else — a genuine
  // conflict (both modes survive) or an empty set (no authorization
  // derivable at all).
  t.result = preferred;
  t.returned_line = 9;
  return t.result;
}

acm::Mode ResolveEntries(std::span<const RightsEntry> all_rights,
                         const Strategy& strategy, ResolveTrace* trace) {
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kResolve);
  const Strategy s = strategy.Canonical();
  ResolveTrace local_trace;
  ResolveTrace& t = trace != nullptr ? *trace : local_trace;
  t = ResolveTrace{};

  const Mode preferred = s.preference_rule == PreferenceRule::kPositive
                             ? Mode::kPositive
                             : Mode::kNegative;

  // The locality target distance over surviving entries (streaming
  // min/max replaces the filtered copy of ApplyLocalityFilter).
  bool any_surviving = false;
  uint32_t target = 0;
  if (s.locality_rule != LocalityRule::kIdentity) {
    for (const RightsEntry& e : all_rights) {
      if (!EffectiveModeOf(e, s.default_rule).has_value()) continue;
      if (!any_surviving) {
        target = e.dis;
        any_surviving = true;
      } else {
        target = s.locality_rule == LocalityRule::kMostSpecific
                     ? std::min(target, e.dis)
                     : std::max(target, e.dis);
      }
    }
  }
  auto survives_locality = [&](const RightsEntry& e) {
    return s.locality_rule == LocalityRule::kIdentity || e.dis == target;
  };

  // Lines 4–6: streamed majority counters.
  if (s.majority_rule != MajorityRule::kSkip) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (const RightsEntry& e : all_rights) {
      const std::optional<Mode> mode = EffectiveModeOf(e, s.default_rule);
      if (!mode.has_value()) continue;
      if (s.majority_rule == MajorityRule::kAfter && !survives_locality(e)) {
        continue;
      }
      if (*mode == Mode::kPositive) {
        c1 = SatAdd(c1, e.multiplicity);
      } else {
        c2 = SatAdd(c2, e.multiplicity);
      }
    }
    t.c1 = c1;
    t.c2 = c2;
    if (c1 != c2) {
      t.result = c1 > c2 ? Mode::kPositive : Mode::kNegative;
      t.returned_line = 6;
      return t.result;
    }
  }

  // Lines 7–8: the Auth set of modes surviving the locality filter.
  t.auth_computed = true;
  for (const RightsEntry& e : all_rights) {
    const std::optional<Mode> mode = EffectiveModeOf(e, s.default_rule);
    if (!mode.has_value() || !survives_locality(e)) continue;
    if (*mode == Mode::kPositive) {
      t.auth_has_positive = true;
    } else {
      t.auth_has_negative = true;
    }
  }
  if (t.auth_has_positive != t.auth_has_negative) {
    t.result = t.auth_has_positive ? Mode::kPositive : Mode::kNegative;
    t.returned_line = 8;
    return t.result;
  }

  // Line 9: preference settles conflicts and the empty set.
  t.result = preferred;
  t.returned_line = 9;
  return t.result;
}

namespace {

/// One run of the classic oracle: its decision, the ancestor
/// sub-graph's size, and the stage stamps of the caller's span (0
/// without a span, or when the span is unsampled).
struct ClassicRun {
  acm::Mode mode = Mode::kNegative;
  size_t members = 0;
  uint64_t t_extract = 0;
  uint64_t t_propagate = 0;
};

/// The classic oracle: Steps 1–4 on the reference engines —
/// ancestor-sub-graph extraction, aggregated propagation, Fig. 4
/// `Resolve`. `ResolveAccess(use_fast_path = false)` and shadow
/// verification both run it. The sparse column is staged into
/// reusable per-thread label storage, so a steady-state run costs
/// O(sub-graph), not O(node count); `stats` receive the aggregated
/// engine's work counters.
ClassicRun ResolveClassic(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                          graph::NodeId subject, acm::ObjectId object,
                          acm::RightId right, const Strategy& canonical,
                          const PropagateOptions& prop_options,
                          const QuerySpan* span, ResolveTrace* trace,
                          PropagateStats* stats) {
  struct ClassicScratch {
    graph::SubgraphScratch extraction;
    std::vector<std::optional<acm::Mode>> labels;
  };
  thread_local ClassicScratch scratch;
  const size_t node_count = dag.node_count();
  if (scratch.labels.size() < node_count) scratch.labels.resize(node_count);

  // Stage the sparse column into the dense label view the classic
  // engine consumes, exactly like ExtractLabels would build it.
  const std::span<const acm::ExplicitAcm::ColumnEntry> column =
      eacm.Column(object, right);
  for (const acm::ExplicitAcm::ColumnEntry& e : column) {
    if (e.subject < node_count) scratch.labels[e.subject] = e.mode;
  }
  ClassicRun run;
  const graph::AncestorSubgraph sub(dag, subject, scratch.extraction);
  run.members = sub.member_count();
  if (span != nullptr) run.t_extract = span->Stamp();
  const RightsBag bag = PropagateAggregated(
      sub, LabelView(scratch.labels.data(), node_count), prop_options, stats);
  if (span != nullptr) run.t_propagate = span->Stamp();
  run.mode = Resolve(bag, canonical, trace);
  for (const acm::ExplicitAcm::ColumnEntry& e : column) {
    if (e.subject < node_count) scratch.labels[e.subject].reset();
  }
  return run;
}

/// Online shadow verification (DESIGN.md §9): re-resolves one hot-path
/// decision with the classic oracle and compares decision *and*
/// derivation (c1/c2, Auth set, returned line) bit for bit. A
/// divergence is counted (`ucr_shadow_mismatch_total`), retained in the
/// mismatch dump, and emitted as an audit event carrying both
/// derivations. Its heap traffic runs under an allocation-exclusion
/// scope, so the hot path's 0-allocs/query bound refers to unshadowed
/// queries. When the decision came from the reachability index,
/// `indexed_bag_entries` is the composed bag's size; the oracle's
/// extraction then doubles as the `ucr_reach_pruned_nodes` probe (the
/// sub-graph members the index never touched).
[[gnu::noinline, gnu::cold]] void ShadowVerifyDecision(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& canonical, const PropagateOptions& prop_options,
    const ResolveTrace& fast_trace, size_t indexed_bag_entries) {
  // Deliberate sampled work: its heap traffic is excluded from the
  // hot path's zero-allocation budget (util/alloc_counter.cc), and its
  // re-resolution must not pollute the query's phase breakdown.
  obs::ScopedAllocExclusion off_budget;
  obs::ScopedPhaseSuspend no_phases;

  ResolveTrace oracle_trace;
  const ClassicRun oracle =
      ResolveClassic(dag, eacm, subject, object, right, canonical,
                     prop_options, nullptr, &oracle_trace, nullptr);
  if (indexed_bag_entries != SIZE_MAX) {
    // The oracle just extracted the sub-graph the index skipped:
    // record how much work the compression saved on this query.
    GetResolveMetrics().pruned_nodes.Observe(
        oracle.members > indexed_bag_entries
            ? oracle.members - indexed_bag_entries
            : 0);
  }

  if (obs::ShadowVerifier::perturb_oracle_for_testing()) {
    oracle_trace.result = oracle_trace.result == Mode::kPositive
                              ? Mode::kNegative
                              : Mode::kPositive;
  }

  obs::ShadowVerifier& verifier = obs::ShadowVerifier::Global();
  verifier.RecordCheck();
  obs::ShadowVerifier::Mismatch mismatch;
  mismatch.fast = Fig4Of(fast_trace);
  mismatch.oracle = Fig4Of(oracle_trace);
  if (mismatch.fast == mismatch.oracle) return;

  mismatch.subject = subject;
  mismatch.object = object;
  mismatch.right = right;
  mismatch.strategy_index = canonical.CanonicalIndex();
  verifier.RecordMismatch(mismatch);
}

}  // namespace

[[gnu::noinline, gnu::cold]] void QuerySpan::Record(
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& canonical, bool fast_path, uint64_t t_extract,
    uint64_t t_propagate, const ResolveTrace* trace, acm::Mode mode) const {
  const uint64_t t_end = obs::NowNs();
  obs::QueryTraceRecord record;
  record.subject = subject;
  record.object = object;
  record.right = right;
  record.strategy_index = canonical.CanonicalIndex();
  record.fast_path = fast_path;
  record.resolution_cache_hit = trace == nullptr;
  if (trace != nullptr) {
    static_cast<obs::Fig4Derivation&>(record) = Fig4Of(*trace);
    record.extract_ns = t_extract - t_start_;
    record.propagate_ns = t_propagate - t_extract;
    record.resolve_ns = t_end - t_propagate;
  }
  record.total_ns = t_end - t_start_;
  record.phases = phases_.Snapshot();
  record.granted = mode == Mode::kPositive;
  obs::Histogram& latency = surface_ == QuerySurface::kSnapshot
                                ? GetResolveMetrics().snapshot_latency
                                : GetResolveMetrics().latency;
  latency.Observe(record.total_ns);
  const uint64_t sequence = obs::QueryTracer::Global().Record(record);
  // Exemplar: the latency histogram keeps this sample's trace id so
  // /tracez can resolve a tail bucket back to its Fig. 4 derivation.
  latency.RecordExemplar(record.total_ns, sequence, subject, object, right);
}

acm::Mode ResolveOnHotPath(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                           const graph::ReachabilityIndex* usable_index,
                           graph::NodeId subject, acm::ObjectId object,
                           acm::RightId right, const Strategy& canonical,
                           PropagationMode mode, const QuerySpan& span,
                           ResolveTrace* trace, PropagateStats* stats) {
  PropagateOptions prop_options;
  prop_options.propagation_mode = mode;
  std::span<const RightsEntry> sink_bag;
  uint64_t t_extract = 0;
  if (usable_index != nullptr) {
    // Reachability-index path (DESIGN.md §12): the sink bag is composed
    // from the subject's compressed label in O(label) — no extraction,
    // no propagation.
    sink_bag =
        ComposeIndexedSinkBag(*usable_index, subject, object, right, mode);
    t_extract = span.Stamp();
  } else {
    // Allocation-free hot path (DESIGN.md §7): scratch-arena
    // extraction, sparse column staging, flat propagation. Steady
    // state touches no heap.
    HotPath& hot = HotPath::ThreadLocal();
    const graph::ScratchSubgraphView view = hot.scratch.Extract(dag, subject);
    t_extract = span.Stamp();
    hot.propagator.SetLabels(eacm.Column(object, right), dag.node_count());
    sink_bag = hot.propagator.PropagateSink(view, prop_options, stats);
  }
  const uint64_t t_propagate = span.Stamp();
  // Shadow verification (DESIGN.md §9) compares the Fig. 4 trace bit
  // for bit, so a shadowed query also fills the stack-local trace.
  const bool shadowed = obs::ShadowVerifier::ShouldShadow();
  ResolveTrace sampled_trace;
  ResolveTrace* trace_out =
      trace != nullptr
          ? trace
          : (span.sampled() || shadowed ? &sampled_trace : nullptr);
  const acm::Mode decision = ResolveEntries(sink_bag, canonical, trace_out);
  if constexpr (obs::kEnabled) {
    ResolveMetrics& m = GetResolveMetrics();
    const bool snapshot = span.surface() == QuerySurface::kSnapshot;
    if (usable_index != nullptr) {
      (snapshot ? m.snapshot_indexed : m.indexed).Inc();
      m.compressed_entries.Observe(sink_bag.size());
    } else if (!snapshot) {
      m.fast.Inc();  // Snapshot reads count every query in one counter.
    }
    if (span.sampled()) [[unlikely]] {
      span.Record(subject, object, right, canonical, /*fast_path=*/true,
                  t_extract, t_propagate, trace_out, decision);
    }
    if (shadowed) [[unlikely]] {
      ShadowVerifyDecision(dag, eacm, subject, object, right, canonical,
                           prop_options, *trace_out,
                           usable_index != nullptr ? sink_bag.size()
                                                   : SIZE_MAX);
    }
  }
  return decision;
}

StatusOr<acm::Mode> ResolveAccess(const graph::Dag& dag,
                                  const acm::ExplicitAcm& eacm,
                                  graph::NodeId subject, acm::ObjectId object,
                                  acm::RightId right, const Strategy& strategy,
                                  const ResolveAccessOptions& options,
                                  ResolveTrace* trace, PropagateStats* stats,
                                  const graph::ReachabilityIndex* reach_index) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id " + std::to_string(subject) +
                              " out of range");
  }
  if (object >= eacm.object_count()) {
    return Status::OutOfRange("object id out of range");
  }
  if (right >= eacm.right_count()) {
    return Status::OutOfRange("right id out of range");
  }
  const Strategy canonical = strategy.Canonical();
  // Per-query telemetry; the histogram is a sampled distribution
  // (ucr_admin's sweep runs at interval 1 to make it exhaustive), and
  // everything vanishes under UCR_METRICS=OFF. The span is also the
  // owner scope of this query's phase attribution — a no-op when the
  // caller (e.g. a profiled batch) already owns one.
  const QuerySpan span(QuerySurface::kResolve);

  // `stats` describe the traversal the index skips, so their presence
  // forces the extraction path (which reports them exactly); decisions
  // and traces are bit-identical either way.
  const bool indexed =
      stats == nullptr && ReachIndexUsable(reach_index, dag, eacm, options);
  if (indexed || options.use_fast_path) {
    return ResolveOnHotPath(dag, eacm, indexed ? reach_index : nullptr,
                            subject, object, right, canonical,
                            options.propagation_mode, span, trace, stats);
  }

  PropagateOptions prop_options;
  prop_options.propagation_mode = options.propagation_mode;
  ResolveTrace sampled_trace;
  ResolveTrace* trace_out =
      trace != nullptr ? trace : (span.sampled() ? &sampled_trace : nullptr);
  const ClassicRun run =
      ResolveClassic(dag, eacm, subject, object, right, canonical,
                     prop_options, &span, trace_out, stats);
  if constexpr (obs::kEnabled) {
    GetResolveMetrics().classic.Inc();
    if (span.sampled()) [[unlikely]] {
      span.Record(subject, object, right, canonical, /*fast_path=*/false,
                  run.t_extract, run.t_propagate, trace_out, run.mode);
    }
  }
  return run.mode;
}

}  // namespace ucr::core
