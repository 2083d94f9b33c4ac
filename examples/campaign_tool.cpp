// campaign_tool: run a full evaluation campaign from a declarative
// spec file — the paper's standardized-comparison workflow in one
// command.
//
//   campaign_tool <spec-file> [options]
//   campaign_tool --demo      [options]
//   campaign_tool --schedulers
//
// Options:
//   --threads N   worker threads (default: hardware concurrency)
//   --out PREFIX  output prefix (default: "campaign"); writes
//                 PREFIX_cells.csv, PREFIX_summary.csv, PREFIX.json
//   --rank M      rank schedulers by metric M (overrides the spec's
//                 `rank =` line; see metrics::valid_metric_names)
//   --quiet       suppress per-cell progress
//   --schedulers  print the scheduler registry catalogue and exit
//
// `--demo` runs a built-in campaign (2 synthetic workloads x 4
// schedulers — including a parameterized EASY variant — x open/closed
// loop x 2 seed replications) and is also a living example of the spec
// format. See src/exp/campaign.hpp for the full grammar.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "exp/campaign.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sched/registry.hpp"
#include "util/string_util.hpp"

namespace {

constexpr const char* kDemoSpec = R"(# Built-in demo campaign.
workload = lublin99 jobs=700 load=0.7
workload = jann97 jobs=700 load=0.7
scheduler = fcfs
scheduler = sjf
scheduler = easy
scheduler = easy reserve_depth=4
scheduler = conservative
config = label=open
config = closed_loop=1 label=closed
replications = 2
seed = 42
nodes = 128
rank = mean-bounded-slowdown
)";

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <spec-file>|--demo|--schedulers [--threads N] "
               "[--out PREFIX] [--rank METRIC] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pjsb;

  std::string spec_path;
  bool demo = false;
  bool quiet = false;
  int threads = 0;
  std::string prefix = "campaign";
  std::optional<metrics::MetricId> rank_override;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--schedulers") {
      std::cout << sched::Registry::global().help();
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--rank" && i + 1 < argc) {
      try {
        rank_override = metrics::metric_from_name(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "--rank: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto n = pjsb::util::parse_i64(argv[++i]);
      if (!n || *n < 0 || *n > std::numeric_limits<int>::max()) {
        std::cerr << "--threads needs a non-negative integer (0 = auto)\n";
        return 2;
      }
      threads = int(*n);
    } else if (arg == "--out" && i + 1 < argc) {
      prefix = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (demo ? !spec_path.empty() : spec_path.empty()) return usage(argv[0]);

  exp::CampaignSpec spec;
  try {
    if (demo) {
      spec = exp::parse_campaign_spec_string(kDemoSpec);
    } else {
      std::ifstream in(spec_path);
      if (!in) {
        std::cerr << "cannot open spec file: " << spec_path << "\n";
        return 1;
      }
      spec = exp::parse_campaign_spec(in);
    }
  } catch (const std::exception& e) {
    std::cerr << "spec error: " << e.what() << "\n";
    return 1;
  }
  if (rank_override) spec.rank_metric = *rank_override;

  std::cout << "campaign: " << spec.workloads.size() << " workload(s) x "
            << spec.schedulers.size() << " scheduler(s) x "
            << spec.configs.size() << " config(s) x " << spec.replications
            << " replication(s) = " << spec.cell_count() << " cells\n";

  exp::RunnerOptions options;
  options.threads = threads;
  if (!quiet) {
    // The runner skips replications it can prove identical, so the
    // progress total can be smaller than the announced cell count.
    options.progress = [](std::size_t done, std::size_t total) {
      std::cout << "  simulated cell " << done << "/" << total << " done\n";
    };
  }

  exp::CampaignRun run;
  try {
    run = exp::run_campaign(spec, options);
  } catch (const std::exception& e) {
    std::cerr << "campaign failed: " << e.what() << "\n";
    return 1;
  }

  const auto report = exp::aggregate(run);
  const auto write_file = [](const std::string& path,
                             const std::string& content) {
    std::ofstream out(path);
    out << content;
    out.flush();
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    return true;
  };
  const std::string cells_path = prefix + "_cells.csv";
  const std::string summary_path = prefix + "_summary.csv";
  const std::string json_path = prefix + ".json";
  if (!write_file(cells_path, exp::cells_csv(run)) ||
      !write_file(summary_path, exp::summary_csv(run, report)) ||
      !write_file(json_path, exp::to_json(run, report))) {
    return 1;
  }
  std::cout << "wrote " << cells_path << ", " << summary_path << ", "
            << json_path << "\n";
  if (!spec.telemetry_dir.empty()) {
    // Per-cell traces already landed in the telemetry dir during the
    // run; the rollup CSV joins them under the same roof.
    const std::string telemetry_path =
        spec.telemetry_dir + "/telemetry.csv";
    if (!write_file(telemetry_path, exp::telemetry_csv(run))) return 1;
    // Skipped deterministic replications share replication 0's trace
    // file, so the directory can hold fewer files than cells.
    std::cout << "wrote " << telemetry_path << " and per-cell traces in "
              << spec.telemetry_dir << "/\n";
  }
  std::cout << "\n";
  std::cout << exp::ranking_table(run, report, spec.rank_metric);
  return 0;
}
