// Quickstart: the five-minute tour of pjsb.
//
//   1. generate a standard workload (Lublin '99 model) as an SWF trace;
//   2. check it against the standard's consistency rules;
//   3. write it to disk in Standard Workload Format;
//   4. simulate it under EASY backfilling;
//   5. print the metric set.
//
// Build & run:  ./build/examples/quickstart [jobs] [nodes] [load]
//   jobs >= 1, nodes in [1, 4194304], load > 0; a malformed or
//   out-of-range argument exits 2 naming it.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/swf/validator.hpp"
#include "core/swf/writer.hpp"
#include "metrics/aggregate.hpp"
#include "sim/machine.hpp"
#include "sim/replay.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace {

/// Exit 2 with `message`: atoll read "abc" as 0 jobs and atof "0.7x" as
/// 0.7, and a negative job count aborted in vector::reserve.
[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "quickstart: " << message
            << "\nusage: quickstart [jobs] [nodes] [load]\n";
  std::exit(2);
}

[[noreturn]] void bad_argument(const char* name, const char* text,
                               const std::string& wanted) {
  usage_error(std::string(name) + " must be " + wanted + ", not '" + text +
              "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pjsb;
  if (argc > 4) usage_error("at most three arguments");
  std::size_t jobs = 2000;
  std::int64_t nodes = 128;
  double load = 0.7;
  if (argc > 1) {
    const auto n = util::parse_i64(argv[1]);
    if (!n || *n < 1) bad_argument("jobs", argv[1], "an integer >= 1");
    jobs = std::size_t(*n);
  }
  if (argc > 2) {
    const auto n = util::parse_i64(argv[2]);
    if (!n || *n < 1 || *n > sim::kMaxSpecNodes) {
      bad_argument("nodes", argv[2],
                   "an integer in [1, " + std::to_string(sim::kMaxSpecNodes) +
                       "]");
    }
    nodes = *n;
  }
  if (argc > 3) {
    const auto value = util::parse_f64(argv[3]);
    if (!value || !std::isfinite(*value) || *value <= 0) {
      bad_argument("load", argv[3], "a finite number > 0");
    }
    load = *value;
  }

  // 1. Generate.
  util::Rng rng(42);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config,
                                  rng);
  trace = workload::scale_to_load(trace, load, nodes);
  std::cout << "generated " << trace.records.size()
            << " jobs with the Lublin '99 model, offered load "
            << workload::offered_load(trace, nodes) << "\n";

  // 2. Validate ("every datum must abide to strict consistency rules").
  const auto report = swf::validate(trace);
  std::cout << "validator: " << report.errors() << " errors, "
            << report.warnings() << " warnings\n";

  // 3. Persist as SWF.
  const std::string path = "quickstart.swf";
  if (swf::write_swf_file(path, trace)) {
    std::cout << "wrote " << path << "\n";
  }

  // 4. Simulate under EASY backfilling (any registry spec string works
  // here — try "easy reserve_depth=4" or "gang slots=2").
  const auto result =
      sim::replay(trace, sim::SimulationSpec{}.with_scheduler("easy"));

  // 5. Report.
  const auto metrics_report =
      metrics::compute_report(result.completed, result.stats);
  util::Table table({"metric", "value"});
  table.row().cell("jobs completed").cell(metrics_report.jobs);
  table.row().cell("mean wait (s)").cell(metrics_report.mean_wait, 1);
  table.row().cell("mean response (s)").cell(metrics_report.mean_response, 1);
  table.row().cell("mean bounded slowdown")
      .cell(metrics_report.mean_bounded_slowdown, 2);
  table.row().cell("utilization").cell(metrics_report.utilization, 3);
  table.row().cell("makespan").cell(
      util::format_duration(metrics_report.makespan));
  std::cout << '\n' << table.to_string();
  return 0;
}
