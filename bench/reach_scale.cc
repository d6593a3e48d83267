// Reachability-index scale bench (R1, DESIGN.md §12): Resolve() on a
// million-subject layered hierarchy in microseconds.
//
// The hierarchy is `GenerateScaleLayeredDag` (layer-contiguous ids,
// every edge descends exactly one layer); explicit labels are confined
// to the top layers and drawn from a handful of role templates, so the
// supernode classes stay few and the per-node profile labels stay far
// under the build budgets — the regime the index is designed for.
//
// Sections (one "JSON " row each, for BENCH_reach_scale.json):
//
//   build        full ReachabilityIndex::Build (qps = builds/s), plus
//                the index size counters
//   indexed      ResolveAccess with the index: O(label) bag compose
//   classic      the same queries through the PR 2 hot path (ancestor
//                sub-graph extraction) — the cost the index removes
//   incremental  RebuildIncremental latency across sink-level
//                membership edits (the "new hire" write path)
//   indexed_after  indexed queries against the last rebuilt generation
//   reach_query  graph::ReachQuery built on demand (build_ms, two_hop)
//                and Reaches(root, sink) latency; boolean reachability
//                is not part of the index or its write path
//   wide_grant   one row per fourth layer: toggling a grant on one of
//                its widest subjects relabels all its descendants
//                (RebuildIncremental; p50/max over two grants and two
//                revokes, with the descendant count; build_ms repeats
//                the full build for scale)
//   new_subject  a new hire while an older generation (Dag copy and
//                index) is held, as a published snapshot holds them:
//                EnsureNode + InsertEdge + RebuildIncremental, p50/p99/
//                max; ensure_*_ns time EnsureNode alone, whose max is
//                a name-table fold (the delta's rebase into the base)
//
// The run aborts on any indexed-vs-classic decision divergence, so the
// smoke run doubles as a correctness gate. --smoke shrinks the graph
// to 2^16 nodes. (This shape is too densely reachable for the 2-hop
// labels at either size — the budget abort is itself exercised — so
// `Reaches` uses the interval-filtered traversal.)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/reach_query.h"
#include "graph/reachability.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

struct Workload {
  graph::Dag dag;
  acm::ExplicitAcm eacm;
  acm::ObjectId object = 0;
  acm::RightId right = 0;
};

/// Role templates: every labeled subject gets one template's whole
/// row, so the number of distinct (row, root-ness) classes — and with
/// it the per-node label width — is bounded by design, not by luck.
Workload MakeWorkload(size_t nodes, size_t layers, Random& rng) {
  graph::ScaleLayeredDagOptions shape;
  shape.nodes = nodes;
  shape.layers = layers;
  shape.parents_per_node = 2;
  auto dag = graph::GenerateScaleLayeredDag(shape, rng);
  if (!dag.ok()) std::abort();
  Workload w{std::move(dag).value(), {}, 0, 0};

  const acm::ObjectId doc = w.eacm.InternObject("doc").value();
  const acm::ObjectId vault = w.eacm.InternObject("vault").value();
  const acm::RightId read = w.eacm.InternRight("read").value();
  const acm::RightId write = w.eacm.InternRight("write").value();
  w.object = doc;
  w.right = read;

  struct TemplateEntry {
    acm::ObjectId object;
    acm::RightId right;
    acm::Mode mode;
  };
  const std::vector<std::vector<TemplateEntry>> templates = {
      {{doc, read, acm::Mode::kPositive}},
      {{doc, read, acm::Mode::kNegative}},
      {{doc, read, acm::Mode::kPositive}, {doc, write, acm::Mode::kPositive}},
      {{doc, read, acm::Mode::kNegative}, {vault, read, acm::Mode::kNegative}},
  };

  // Layer 0 (roots) is labeled densely, layer 1 sparsely; everything
  // below is pure folded interior.
  const size_t layer0_end = nodes / layers;
  const size_t layer1_end = 2 * nodes / layers;
  for (graph::NodeId v = 0; v < w.dag.node_count(); ++v) {
    const double rate = v < layer0_end ? 0.3 : (v < layer1_end ? 0.02 : 0.0);
    if (rate == 0.0) break;  // Layer-contiguous ids: nothing below.
    if (!rng.Bernoulli(rate)) continue;
    const auto& row = templates[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(templates.size())))];
    for (const TemplateEntry& e : row) {
      if (!w.eacm.Set(v, e.object, e.right, e.mode).ok()) std::abort();
    }
  }
  return w;
}

struct SectionResult {
  double millis = 0.0;
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

uint64_t Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

SectionResult Summarize(std::vector<uint64_t>& latencies) {
  SectionResult r;
  r.count = latencies.size();
  uint64_t total = 0;
  for (const uint64_t ns : latencies) total += ns;
  r.millis = static_cast<double>(total) / 1e6;
  r.p50_ns = Percentile(latencies, 0.50);
  r.p99_ns = Percentile(latencies, 0.99);
  return r;
}

void EmitRow(const char* section, size_t nodes, const SectionResult& r) {
  const double qps =
      r.millis > 0.0 ? static_cast<double>(r.count) / (r.millis / 1e3) : 0.0;
  std::printf(
      "JSON {\"bench\":\"reach_scale\",\"section\":\"%s\",\"nodes\":%zu,"
      "\"queries\":%llu,\"millis\":%.3f,\"qps\":%.1f,\"p50_ns\":%llu,"
      "\"p99_ns\":%llu}\n",
      section, nodes, static_cast<unsigned long long>(r.count), r.millis, qps,
      static_cast<unsigned long long>(r.p50_ns),
      static_cast<unsigned long long>(r.p99_ns));
}

/// Folded-stack triage for the acceptance gate: how much of the
/// sampled wall time symbolized to a *named* leaf frame, as opposed
/// to "[unknown]", a bare hex pc, or the module+offset fallback.
struct FoldedAttribution {
  uint64_t total = 0;  ///< Samples across every folded line.
  uint64_t named = 0;  ///< Samples whose leaf frame carries a symbol.
};

FoldedAttribution AttributeFolded(const std::string& folded) {
  FoldedAttribution a;
  size_t pos = 0;
  while (pos < folded.size()) {
    size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) eol = folded.size();
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    // Count is after the last space; demangled frames may themselves
    // contain spaces (template arguments), so split from the right.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const uint64_t count =
        std::strtoull(line.c_str() + space + 1, nullptr, 10);
    if (count == 0) continue;
    const std::string stack = line.substr(0, space);
    const size_t semi = stack.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? stack : stack.substr(semi + 1);
    a.total += count;
    const bool unnamed = leaf.empty() || leaf == "[unknown]" ||
                         leaf.compare(0, 2, "0x") == 0 ||
                         leaf.find("+0x") != std::string::npos;
    if (!unnamed) a.named += count;
  }
  return a;
}

acm::Mode MustResolve(const Workload& w, graph::NodeId subject,
                      const core::Strategy& strategy,
                      const core::ResolveAccessOptions& options,
                      const graph::ReachabilityIndex* index) {
  auto mode = core::ResolveAccess(w.dag, w.eacm, subject, w.object, w.right,
                                  strategy, options, nullptr, nullptr, index);
  if (!mode.ok()) {
    std::cerr << "FATAL: ResolveAccess failed: " << mode.status().message()
              << "\n";
    std::abort();
  }
  return mode.value();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t kNodes = smoke ? (size_t{1} << 16) : (size_t{1} << 20);
  const size_t kLayers = smoke ? 16 : 24;
  const size_t kQueries = smoke ? 2000 : 20000;
  const size_t kClassicQueries = smoke ? 200 : 50;
  const size_t kVerifyQueries = smoke ? 128 : 64;
  const size_t kEdits = smoke ? 8 : 16;

  // UCR_BENCH_PROFILE=1 runs the whole bench under the §14 wall-clock
  // sampler and reports the named-frame attribution of the folded
  // profile at the end (acceptance gate: >= 90% of sampled time).
  const bool profile = std::getenv("UCR_BENCH_PROFILE") != nullptr;
  if (profile && !obs::WallProfiler::Global().Start()) {
    std::cerr << "FATAL: UCR_BENCH_PROFILE set but the profiler refused "
              << "to start (already running, or metrics compiled out)\n";
    return 1;
  }

  Random rng(20260808);
  Workload w = MakeWorkload(kNodes, kLayers, rng);
  const core::Strategy strategy;  // P- canonical.
  std::cout << "reach_scale: " << w.dag.node_count() << " subjects, "
            << w.eacm.size() << " explicit authorizations"
            << (smoke ? " (smoke)" : "") << "\n\n";

  // Query mix: sinks in the last layer — the deepest subjects, whose
  // ancestor cones (and therefore classic extractions) are largest.
  const size_t last_layer_begin = (kLayers - 1) * kNodes / kLayers;
  std::vector<graph::NodeId> subjects(kQueries);
  for (graph::NodeId& s : subjects) {
    s = static_cast<graph::NodeId>(
        last_layer_begin + rng.Uniform(kNodes - last_layer_begin));
  }

  // -- build ---------------------------------------------------------
  const uint64_t t_build = obs::NowNs();
  std::shared_ptr<const graph::ReachabilityIndex> index =
      graph::ReachabilityIndex::Build(w.dag, w.eacm.epoch(),
                                      w.eacm.ReachRows());
  const double build_ms =
      static_cast<double>(obs::NowNs() - t_build) / 1e6;
  const graph::ReachabilityIndex::IndexStats istats = index->stats();
  if (!istats.ready) {
    std::cerr << "FATAL: index build tripped a budget on the bench shape\n";
    std::abort();
  }
  std::printf(
      "JSON {\"bench\":\"reach_scale\",\"section\":\"build\",\"nodes\":%zu,"
      "\"queries\":1,\"millis\":%.3f,\"qps\":%.3f,\"supernodes\":%zu,"
      "\"folded_nodes\":%zu,\"label_entries\":%zu,\"label_bytes\":%zu}\n",
      kNodes, build_ms, build_ms > 0.0 ? 1e3 / build_ms : 0.0,
      istats.supernodes, istats.folded_nodes, istats.label_entries,
      istats.label_bytes);

  // -- indexed -------------------------------------------------------
  core::ResolveAccessOptions indexed_options;
  std::vector<uint64_t> latencies;
  latencies.reserve(kQueries);
  for (const graph::NodeId s : subjects) {
    const uint64_t t0 = obs::NowNs();
    (void)MustResolve(w, s, strategy, indexed_options, index.get());
    latencies.push_back(obs::NowNs() - t0);
  }
  const SectionResult indexed = Summarize(latencies);
  EmitRow("indexed", kNodes, indexed);

  // -- classic -------------------------------------------------------
  core::ResolveAccessOptions classic_options;
  classic_options.use_reachability_index = false;
  latencies.clear();
  for (size_t i = 0; i < kClassicQueries; ++i) {
    const graph::NodeId s = subjects[i % subjects.size()];
    const uint64_t t0 = obs::NowNs();
    (void)MustResolve(w, s, strategy, classic_options, nullptr);
    latencies.push_back(obs::NowNs() - t0);
  }
  const SectionResult classic = Summarize(latencies);
  EmitRow("classic", kNodes, classic);

  // -- differential gate ---------------------------------------------
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    const graph::NodeId s = subjects[i];
    const acm::Mode a = MustResolve(w, s, strategy, indexed_options,
                                    index.get());
    const acm::Mode b = MustResolve(w, s, strategy, classic_options, nullptr);
    if (a != b) {
      std::cerr << "FATAL: indexed/classic divergence on subject " << s
                << "\n";
      std::abort();
    }
  }

  // -- incremental ---------------------------------------------------
  // Sink-level membership churn: re-parent one last-layer subject per
  // edit (the affected set is just that subject), then derive the next
  // index generation incrementally.
  latencies.clear();
  for (size_t i = 0; i < kEdits; ++i) {
    const graph::NodeId child = subjects[i];
    const size_t parent_lo = (kLayers - 2) * kNodes / kLayers;
    graph::NodeId parent;
    Status status;
    do {
      parent = static_cast<graph::NodeId>(
          parent_lo + rng.Uniform(last_layer_begin - parent_lo));
      std::vector<graph::NodeId> affected;
      status = w.dag.InsertEdge(parent, child, &affected);
      if (!status.ok()) continue;
      const uint64_t t0 = obs::NowNs();
      index = graph::ReachabilityIndex::RebuildIncremental(
          w.dag, w.eacm.epoch(), index, affected, {});
      latencies.push_back(obs::NowNs() - t0);
    } while (!status.ok());
    if (!index->ready()) {
      std::cerr << "FATAL: incremental rebuild tripped a budget\n";
      std::abort();
    }
  }
  const SectionResult incremental = Summarize(latencies);
  EmitRow("incremental", kNodes, incremental);

  // -- indexed_after -------------------------------------------------
  // The rebuilt generation answers — and still matches the oracle.
  latencies.clear();
  for (const graph::NodeId s : subjects) {
    const uint64_t t0 = obs::NowNs();
    (void)MustResolve(w, s, strategy, indexed_options, index.get());
    latencies.push_back(obs::NowNs() - t0);
  }
  const SectionResult indexed_after = Summarize(latencies);
  EmitRow("indexed_after", kNodes, indexed_after);
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    const graph::NodeId s = subjects[i];
    const acm::Mode a = MustResolve(w, s, strategy, indexed_options,
                                    index.get());
    const acm::Mode b = MustResolve(w, s, strategy, classic_options, nullptr);
    if (a != b) {
      std::cerr << "FATAL: post-rebuild indexed/classic divergence on "
                << "subject " << s << "\n";
      std::abort();
    }
  }

  // -- reach_query ---------------------------------------------------
  // Does some first-layer root reach the sampled sink? Each miss walks
  // the root's filtered cone, so a few queries suffice.
  const uint64_t t_reach = obs::NowNs();
  const graph::ReachQuery reach_query(w.dag);
  const double reach_build_ms =
      static_cast<double>(obs::NowNs() - t_reach) / 1e6;
  const size_t layer0_end = kNodes / kLayers;
  latencies.clear();
  size_t reached = 0;
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    const auto root = static_cast<graph::NodeId>(rng.Uniform(layer0_end));
    const uint64_t t0 = obs::NowNs();
    if (reach_query.Reaches(root, subjects[i])) ++reached;
    latencies.push_back(obs::NowNs() - t0);
  }
  const SectionResult reach = Summarize(latencies);
  std::printf(
      "JSON {\"bench\":\"reach_scale\",\"section\":\"reach_query\","
      "\"nodes\":%zu,\"queries\":%llu,\"millis\":%.3f,\"p50_ns\":%llu,"
      "\"p99_ns\":%llu,\"build_ms\":%.3f,\"two_hop\":%s,\"reached\":%zu}\n",
      kNodes, static_cast<unsigned long long>(reach.count), reach.millis,
      static_cast<unsigned long long>(reach.p50_ns),
      static_cast<unsigned long long>(reach.p99_ns), reach_build_ms,
      reach_query.two_hop_ready() ? "true" : "false", reached);

  // -- wide_grant ----------------------------------------------------
  // Grant, revoke, grant, revoke a fresh right on one subject of every
  // fourth layer — the one with the most descendants among the layer's
  // first 16 — each toggle relabeling the subject and all of them.
  const acm::RightId audit = w.eacm.InternRight("audit").value();
  for (size_t layer = 0; layer + 4 < kLayers; layer += 4) {
    graph::NodeId subject = graph::kInvalidNode;
    std::vector<graph::NodeId> below;
    for (size_t i = 0; i < 16; ++i) {
      const auto candidate =
          static_cast<graph::NodeId>(layer * kNodes / kLayers + i);
      std::vector<graph::NodeId> cone = w.dag.DescendantsOf(candidate);
      if (cone.size() > below.size()) {
        subject = candidate;
        below = std::move(cone);
      }
    }
    std::sort(below.begin(), below.end());
    latencies.clear();
    for (int toggle = 0; toggle < 4; ++toggle) {
      if (toggle % 2 == 0) {
        if (!w.eacm.Set(subject, w.object, audit, acm::Mode::kPositive)
                 .ok()) {
          std::abort();
        }
      } else if (!w.eacm.Erase(subject, w.object, audit)) {
        std::abort();
      }
      const uint64_t t0 = obs::NowNs();
      index = graph::ReachabilityIndex::RebuildIncremental(
          w.dag, w.eacm.epoch(), index, below,
          w.eacm.ReachRowsFor(std::span<const graph::NodeId>(&subject, 1)));
      latencies.push_back(obs::NowNs() - t0);
      if (!index->ready()) {
        std::cerr << "FATAL: wide grant tripped a budget\n";
        std::abort();
      }
    }
    const uint64_t max_ns =
        *std::max_element(latencies.begin(), latencies.end());
    const SectionResult grant = Summarize(latencies);
    std::printf(
        "JSON {\"bench\":\"reach_scale\",\"section\":\"wide_grant\","
        "\"nodes\":%zu,\"layer\":%zu,\"descendants\":%zu,\"queries\":%llu,"
        "\"millis\":%.3f,\"p50_ns\":%llu,\"max_ns\":%llu,"
        "\"build_ms\":%.3f}\n",
        kNodes, layer, below.size(),
        static_cast<unsigned long long>(grant.count), grant.millis,
        static_cast<unsigned long long>(grant.p50_ns),
        static_cast<unsigned long long>(max_ns), build_ms);
  }
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    const graph::NodeId s = subjects[i];
    if (MustResolve(w, s, strategy, indexed_options, index.get()) !=
        MustResolve(w, s, strategy, classic_options, nullptr)) {
      std::cerr << "FATAL: post-grant indexed/classic divergence on "
                << "subject " << s << "\n";
      std::abort();
    }
  }

  // -- new_subject ---------------------------------------------------
  // Each hire joins a random group of the second-to-last layer while
  // the previous generation is still held, so every creation writes to
  // shared name, page and chunk state.
  const size_t kHires = smoke ? 2048 : 4096;
  const size_t hire_parent_lo = (kLayers - 2) * kNodes / kLayers;
  latencies.clear();
  std::vector<uint64_t> ensure_ns;
  ensure_ns.reserve(kHires);
  for (size_t i = 0; i < kHires; ++i) {
    const graph::Dag held_dag = w.dag;
    const std::shared_ptr<const graph::ReachabilityIndex> held_index = index;
    const auto parent = static_cast<graph::NodeId>(
        hire_parent_lo + rng.Uniform(last_layer_begin - hire_parent_lo));
    const std::string name = "hire-" + std::to_string(i);
    const uint64_t t0 = obs::NowNs();
    const graph::NodeId hire = w.dag.EnsureNode(name);
    const uint64_t t1 = obs::NowNs();
    std::vector<graph::NodeId> affected;
    if (!w.dag.InsertEdge(parent, hire, &affected).ok()) std::abort();
    index = graph::ReachabilityIndex::RebuildIncremental(
        w.dag, w.eacm.epoch(), index, affected, {});
    latencies.push_back(obs::NowNs() - t0);
    ensure_ns.push_back(t1 - t0);
    if (!index->ready() || held_dag.FindNode(name) != graph::kInvalidNode) {
      std::cerr << "FATAL: new subject leaked into a held generation\n";
      std::abort();
    }
  }
  const uint64_t hire_max_ns =
      *std::max_element(latencies.begin(), latencies.end());
  const uint64_t ensure_max_ns =
      *std::max_element(ensure_ns.begin(), ensure_ns.end());
  const SectionResult hires = Summarize(latencies);
  std::printf(
      "JSON {\"bench\":\"reach_scale\",\"section\":\"new_subject\","
      "\"nodes\":%zu,\"queries\":%llu,\"millis\":%.3f,\"p50_ns\":%llu,"
      "\"p99_ns\":%llu,\"max_ns\":%llu,\"ensure_p50_ns\":%llu,"
      "\"ensure_max_ns\":%llu}\n",
      kNodes, static_cast<unsigned long long>(hires.count), hires.millis,
      static_cast<unsigned long long>(hires.p50_ns),
      static_cast<unsigned long long>(hires.p99_ns),
      static_cast<unsigned long long>(hire_max_ns),
      static_cast<unsigned long long>(Percentile(ensure_ns, 0.50)),
      static_cast<unsigned long long>(ensure_max_ns));

  TablePrinter table({"section", "count", "total ms", "p50 us", "p99 us"});
  auto add_row = [&](const char* name, const SectionResult& r) {
    table.AddRow({name, std::to_string(r.count),
                  FormatDouble(r.millis, 1),
                  FormatDouble(static_cast<double>(r.p50_ns) / 1000.0, 1),
                  FormatDouble(static_cast<double>(r.p99_ns) / 1000.0, 1)});
  };
  add_row("indexed", indexed);
  add_row("classic", classic);
  add_row("incremental", incremental);
  add_row("indexed_after", indexed_after);
  add_row("reach_query", reach);
  add_row("new_subject", hires);
  std::cout << "\n" << table.ToString() << "\n";

  bench_obs::EmitMetricsSnapshot("reach_scale");

  if (profile) {
    obs::WallProfiler& wp = obs::WallProfiler::Global();
    const obs::WallProfiler::Stats pstats = wp.GetStats();
    wp.Stop();
    const FoldedAttribution attr = AttributeFolded(wp.RenderFolded());
    const double named_pct =
        attr.total > 0
            ? 100.0 * static_cast<double>(attr.named) /
                  static_cast<double>(attr.total)
            : 0.0;
    std::printf(
        "profile: %llu samples (%.0f/s), %llu dropped, %u threads, "
        "%.1f%% of sampled time in named leaf frames\n",
        static_cast<unsigned long long>(pstats.samples_total),
        pstats.samples_per_sec,
        static_cast<unsigned long long>(pstats.dropped_total),
        pstats.threads_seen, named_pct);
    if (attr.total == 0 || named_pct < 90.0) {
      std::cerr << "FATAL: named-frame attribution below the 90% gate\n";
      return 1;
    }
  }
  return 0;
}
