// The administrator's workflow the paper motivates (section 1.2):
// "having a representative workload may therefore allow the
// administrator of a parallel machine to determine the scheduler best
// suited for him."
//
// Loads the site's own trace (or generates a benchmark workload),
// replays every scheduler, and ranks them under a configurable
// owner/user objective blend.
//
// Usage: site_comparison [trace.swf] [lambda]
//   lambda in [0,1]: 0 = owner-centric (utilization), 1 = user-centric.
//   A malformed or out-of-range lambda exits 2 before the trace is read.
#include <iostream>
#include <string>

#include "core/swf/reader.hpp"
#include "metrics/objective.hpp"
#include "sim/replay.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

int main(int argc, char** argv) {
  using namespace pjsb;

  // Checked before anything runs: atof read "0.5x" as 0.5 and "abc" as
  // 0, a purely owner-centric ranking.
  const auto usage_error = [](const std::string& message) {
    std::cerr << "site_comparison: " << message
              << "\nusage: site_comparison [trace.swf] [lambda]\n";
    return 2;
  };
  if (argc > 3) return usage_error("at most two arguments");
  double lambda = 0.5;
  if (argc > 2) {
    const auto value = util::parse_f64(argv[2]);
    if (!value || !(*value >= 0.0 && *value <= 1.0)) {
      return usage_error("lambda must be a number in [0, 1], not '" +
                         std::string(argv[2]) + "'");
    }
    lambda = *value;
  }

  swf::Trace trace;
  if (argc > 1) {
    auto result = swf::read_swf_file(argv[1]);
    if (!result.ok() && result.trace.records.empty()) {
      std::cerr << "cannot read " << argv[1] << "\n";
      return 1;
    }
    trace = std::move(result.trace);
    std::cout << "loaded " << trace.records.size() << " jobs from "
              << argv[1] << "\n";
  } else {
    util::Rng rng(7);
    workload::ModelConfig config;
    config.jobs = 3000;
    config.machine_nodes = 128;
    trace = workload::generate(workload::ModelKind::kLublin99, config, rng);
    trace = workload::scale_to_load(trace, 0.8, 128);
    std::cout << "no trace given; generated a Lublin '99 benchmark "
                 "workload at load 0.8\n";
  }

  // Registry spec strings — parameterized variants rank alongside the
  // classic policies.
  std::vector<std::string> schedulers = {
      "fcfs",         "sjf",  "sjf-fit", "easy", "easy reserve_depth=4",
      "conservative", "gang4"};
  std::vector<metrics::MetricsReport> reports;
  util::Table table({"scheduler", "mean_wait_s", "mean_bsld", "p95_wait_s",
                     "util", "throughput/h"});
  for (const auto& name : schedulers) {
    const auto result =
        sim::replay(trace, sim::SimulationSpec{}.with_scheduler(name));
    const auto report =
        metrics::compute_report(result.completed, result.stats);
    table.row()
        .cell(name)
        .cell(report.mean_wait, 0)
        .cell(report.mean_bounded_slowdown, 2)
        .cell(report.p95_wait, 0)
        .cell(report.utilization, 3)
        .cell(report.throughput_per_hour, 1);
    reports.push_back(report);
  }
  std::cout << '\n' << table.to_string() << '\n';

  const auto objective = metrics::owner_user_blend(lambda);
  const auto ranking = metrics::rank_by_objective(objective, reports);
  std::cout << "ranking under " << objective.name
            << " (best first):\n";
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    std::cout << "  " << pos + 1 << ". " << schedulers[ranking[pos]]
              << "  (cost " << objective.cost(reports[ranking[pos]])
              << ")\n";
  }
  std::cout << "\nrecommended scheduler: " << schedulers[ranking[0]]
            << "\n";
  return 0;
}
