// Shared helpers for the experiment harnesses (bench/). Each binary
// runs one experiment and prints its results as an ASCII table (the
// README's "Benchmarks and `BENCH_*.json`" section lists them).
// Every bench also speaks a common CLI (--quick, --json PATH) and can
// emit its results as machine-readable JSON so CI can track performance
// trajectories (BENCH_*.json) across PRs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/aggregate.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::bench {

inline constexpr std::uint64_t kSeed = 20240612;

/// Common CLI for bench binaries: `--quick` shrinks problem sizes so CI
/// can run the suite in seconds; `--json PATH` writes the results as
/// JSON; `--dump-csv PATH` (only where the bench writes one) writes
/// per-job scheduler decisions for byte-identical regression
/// comparison.
struct BenchOptions {
  bool quick = false;
  std::string json_path;
  std::string csv_path;

  /// `dumps_csv`: the bench writes a decision CSV. An unknown flag, a
  /// flag missing its value and --dump-csv on a bench that writes no
  /// CSV exit 2, naming the flag, before the bench does any work.
  static BenchOptions parse(int argc, char** argv, bool dumps_csv = false) {
    const auto usage = [argv](const std::string& message) {
      std::cerr << argv[0] << ": " << message << '\n';
      std::exit(2);
    };
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--quick") {
        o.quick = true;
        continue;
      }
      if (flag == "--dump-csv" && !dumps_csv) {
        usage("--dump-csv: this bench writes no decision CSV");
      }
      std::string* value = flag == "--json"       ? &o.json_path
                           : flag == "--dump-csv" ? &o.csv_path
                                                  : nullptr;
      if (!value) usage("unknown flag " + flag);
      if (i + 1 >= argc) usage(flag + " needs a value");
      *value = argv[++i];
    }
    return o;
  }
};

/// Wall-clock stopwatch for throughput metrics.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects named metrics and tables and renders one JSON document:
/// {"suite": ..., "metrics": [{name, metric, value, unit}...],
///  "tables": {name: [row objects...]}}.
class JsonReporter {
 public:
  explicit JsonReporter(std::string suite) : suite_(std::move(suite)) {}

  void add(const std::string& name, const std::string& metric, double value,
           const std::string& unit) {
    std::ostringstream os;
    os << "{\"name\": \"" << name << "\", \"metric\": \"" << metric
       << "\", \"value\": ";
    // JSON has no inf/nan tokens; degrade to null rather than emit an
    // unparseable document.
    if (std::isfinite(value)) {
      os << value;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << unit << "\"}";
    metrics_.push_back(os.str());
  }

  void add_table(const std::string& name, const util::Table& table) {
    tables_.push_back("\"" + name + "\": " + table.to_json());
  }

  std::string to_json() const {
    std::ostringstream os;
    os << "{\n  \"suite\": \"" << suite_ << "\",\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i ? ",\n    " : "\n    ") << metrics_[i];
    }
    os << "\n  ],\n  \"tables\": {";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      os << (i ? ",\n    " : "\n    ") << tables_[i];
    }
    os << "\n  }\n}\n";
    return os.str();
  }

  /// Write to `path` if non-empty. Returns false on IO failure.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write " << path << '\n';
      return false;
    }
    out << to_json();
    return bool(out);
  }

 private:
  std::string suite_;
  std::vector<std::string> metrics_;
  std::vector<std::string> tables_;
};

/// Dump completed-job decisions as CSV (sorted by id) — the regression
/// artifact for "same scheduler decisions" comparisons across refactors.
inline void write_decisions_csv(std::ostream& os,
                                std::vector<sim::CompletedJob> completed) {
  std::sort(completed.begin(), completed.end(),
            [](const sim::CompletedJob& a, const sim::CompletedJob& b) {
              return a.id < b.id;
            });
  os << "id,submit,start,end,procs,restarts\n";
  for (const auto& c : completed) {
    os << c.id << ',' << c.submit << ',' << c.start << ',' << c.end << ','
       << c.procs << ',' << c.restarts << '\n';
  }
}

/// Generate a model workload scaled to a target offered load.
inline swf::Trace make_workload(workload::ModelKind kind, std::size_t jobs,
                                std::int64_t nodes, double load,
                                std::uint64_t seed = kSeed) {
  util::Rng rng(seed);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  config.mean_interarrival = 300;
  auto trace = workload::generate(kind, config, rng);
  return workload::scale_to_load(trace, load, nodes);
}

/// Replay a trace under a named scheduler and aggregate metrics.
inline metrics::MetricsReport run_and_report(
    const swf::Trace& trace, const std::string& scheduler,
    const sim::SimulationSpec& spec = {}, const sim::ReplayHooks& hooks = {}) {
  sim::SimulationSpec resolved = spec;
  resolved.scheduler = scheduler;
  const auto result = sim::replay(trace, resolved, hooks);
  return metrics::compute_report(result.completed, result.stats);
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "=== " << experiment << " ===\n" << claim << "\n\n";
}

}  // namespace pjsb::bench
