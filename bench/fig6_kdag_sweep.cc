// Figure 6: Function Propagate() on synthetic data.
//
// Reproduces the paper's KDAG stress test: random complete DAGs of
// three sizes, explicit authorizations assigned to 0.5%–10% of edge
// sources, Propagate() CPU time averaged over repeated random
// placements. The published claim — running time linearly
// proportional to the authorization rate — is checked with a least-
// squares fit per size (R^2 printed).
//
// Flags:
//   --quick       5 repetitions instead of the paper's 20
//   --sizes a,b,c KDAG sizes (default 14,17,20; literal-engine cost is
//                 O(n + d) and d ~ 2^n, so keep n modest)

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "paper/experiments.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#include "bench_obs.h"

int main(int argc, char** argv) {
  using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

  workload::KdagSweepOptions options;
  options.repetitions = 20;  // The paper's setting.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.repetitions = 5;
    } else if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      options.sizes.clear();
      for (const std::string& tok : Split(argv[++i], ',')) {
        uint64_t n = 0;
        if (!ParseUint64(Trim(tok), &n) || n < 2) {
          std::cerr << "bad size '" << tok << "'\n";
          return 2;
        }
        options.sizes.push_back(static_cast<size_t>(n));
      }
    } else {
      std::cerr << "usage: fig6_kdag_sweep [--quick] [--sizes a,b,c]\n";
      return 2;
    }
  }

  std::cout << "== Figure 6: Propagate() on synthetic KDAGs ==\n"
            << "(paper-literal tuple engine; " << options.repetitions
            << " random placements per point)\n\n";

  auto rows = workload::RunKdagSweep(options);
  if (!rows.ok()) {
    std::cerr << rows.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"n", "rate %", "mean us", "stddev us", "mean tuples",
                      "mean labeled"});
  for (const workload::KdagSweepRow& row : *rows) {
    table.AddRow({std::to_string(row.n), FormatDouble(row.rate * 100.0, 1),
                  FormatDouble(row.mean_us, 1),
                  FormatDouble(row.stddev_us, 1),
                  FormatDouble(row.mean_tuples, 0),
                  FormatDouble(row.mean_labeled, 1)});
  }
  table.Print(std::cout);

  // The published takeaway: time grows linearly with the rate.
  std::cout << "\nLinearity of CPU time vs authorization rate:\n";
  for (size_t n : options.sizes) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const workload::KdagSweepRow& row : *rows) {
      if (row.n != n) continue;
      xs.push_back(row.rate);
      ys.push_back(row.mean_us);
    }
    const LinearFit fit = FitLine(xs, ys);
    std::printf(
        "  KDAG(%zu): time_us ~= %.1f + %.1f * rate   (R^2 = %.3f)\n", n,
        fit.intercept, fit.slope, fit.r_squared);
  }
  std::cout << "\nPaper: \"for small authorization rates ... the running "
               "time is linearly\nproportional to the authorization rates\" "
               "— reproduced if R^2 is near 1.\n";
  ucr::bench_obs::EmitMetricsSnapshot("fig6_kdag_sweep");
  return 0;
}
