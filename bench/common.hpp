// Shared helpers for the experiment harnesses (bench/). Each binary
// runs one experiment and prints its results as an ASCII table (the
// README's "Benchmarks and the bench gate" section lists them). Every
// bench speaks a common CLI (--quick, --json PATH); the JSON results of
// five of them feed the CI bench gate (bench/gate.json).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
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
/// JSON.
struct BenchOptions {
  bool quick = false;
  std::string json_path;

  /// An unknown flag and a flag missing its value exit 2, naming the
  /// flag, before the bench does any work.
  static BenchOptions parse(int argc, char** argv) {
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
      if (flag != "--json") usage("unknown flag " + flag);
      if (i + 1 >= argc) usage(flag + " needs a value");
      o.json_path = argv[++i];
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

/// The fastest of `reps` runs of each of `a` and `b`, in seconds, run
/// alternately (a, b, a, b, ...) so a slow spell of a shared host lands
/// on both sides alike; a ratio of the two then judges the code, not
/// the host.
template <typename A, typename B>
std::pair<double, double> fastest_alternating(int reps, A&& a, B&& b) {
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int i = 0; i < reps; ++i) {
    const WallTimer timer_a;
    a();
    best_a = std::min(best_a, timer_a.seconds());
    const WallTimer timer_b;
    b();
    best_b = std::min(best_b, timer_b.seconds());
  }
  return {best_a, best_b};
}

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
