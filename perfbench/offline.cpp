// Offline workloads: replay trace files and report them, as swf_tool
// simulate (materialized) and stream-simulate (streaming) do. A
// workload is one or more trace files; a round replays each once.
//
// Untraced replays go through sim::replay exactly like the tool. Traced
// replays drive an Engine by hand with every layer wrapped (layers.hpp),
// so Engine::step and each layer call can be timed; both kinds must make
// the same decisions, which is checked through a digest of every
// decision.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/online.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"

namespace perfbench {

namespace {

namespace sim = pjsb::sim;

struct Workload {
  std::vector<std::string> paths;
  sim::SimulationSpec spec;
  /// Streaming source + online metrics (stream-simulate), or a whole
  /// trace + compute_report (simulate).
  bool streaming = false;
};

/// What every replay reports, traced or not.
struct Replay {
  double wall = 0.0;  ///< file open to finished report
  std::int64_t records = 0;
  std::int64_t completed = 0;
  std::int64_t parse_errors = 0;
  std::uint64_t digest = 0;
  /// Traced replays only: layer times and counts, all additive.
  std::map<std::string, double> layers;
  std::int64_t profile_steps_max = 0;
};

sim::JobSourceOptions source_options(const sim::SimulationSpec& spec) {
  sim::JobSourceOptions options;
  options.lookahead = spec.lookahead;
  options.max_jobs = spec.max_jobs;
  return options;
}

std::unique_ptr<pjsb::swf::TraceReader> open_or_throw(
    const Workload& w, const std::string& path) {
  auto source = sim::open_trace_source(path, w.spec);
  if (source->open_failed()) {
    throw std::runtime_error("cannot open " + path);
  }
  return source;
}

Replay untraced(const Workload& w, const std::string& path) {
  Replay r;
  DigestObserver digest;
  const auto start = Clock::now();
  if (w.streaming) {
    const auto source = open_or_throw(w, path);
    pjsb::metrics::OnlineMetricsObserver online;
    sim::replay(*source, w.spec,
                sim::ReplayHooks{}.observe(online).observe(digest));
    r.completed = std::int64_t(online.jobs());
    r.records = std::int64_t(source->records_returned());
    r.parse_errors = std::int64_t(source->error_count());
  } else {
    const auto loaded = sim::load_trace(path, w.spec);
    const auto result =
        sim::replay(loaded.trace, w.spec, sim::ReplayHooks{}.observe(digest));
    const auto report =
        pjsb::metrics::compute_report(result.completed, result.stats);
    r.completed = std::int64_t(report.jobs);
    r.records = std::int64_t(loaded.trace.records.size());
    r.parse_errors = std::int64_t(loaded.errors.size());
  }
  r.wall = seconds_between(start, Clock::now());
  r.digest = digest.value();
  return r;
}

/// Build the engine the way sim::replay does, with the scheduler
/// wrapped; the caller attaches observers and admits the workload.
std::unique_ptr<sim::Engine> traced_engine(const Workload& w,
                                           std::int64_t header_nodes,
                                           Tracer& tracer,
                                           TimedScheduler*& scheduler) {
  const Span span(tracer, Layer::kSetup);
  auto wrapped = std::make_unique<TimedScheduler>(
      pjsb::sched::make_scheduler(w.spec.scheduler), tracer);
  scheduler = wrapped.get();
  return std::make_unique<sim::Engine>(
      sim::spec_engine_config(w.spec, header_nodes), std::move(wrapped));
}

/// The wrapped scheduler's counters, read before the engine that owns
/// it is destroyed.
struct SchedulerCounts {
  std::int64_t starts = 0;
  std::int64_t productive_passes = 0;
  std::int64_t profile_steps_max = 0;

  static SchedulerCounts of(const TimedScheduler& scheduler) {
    return {scheduler.starts(), scheduler.productive_passes(),
            scheduler.profile_steps_max()};
  }
};

void run_steps(sim::Engine& engine, Tracer& tracer) {
  while (true) {
    const Span span(tracer, Layer::kStep);
    if (!engine.step()) break;
  }
}

Replay traced(const Workload& w, const std::string& path) {
  Replay r;
  Tracer tracer;
  DigestObserver digest(&tracer);
  TimedScheduler* scheduler = nullptr;
  SchedulerCounts counts;
  std::int64_t events = 0;
  const auto start = Clock::now();
  if (w.streaming) {
    std::unique_ptr<pjsb::swf::TraceReader> reader;
    {
      const Span span(tracer, Layer::kParse);
      reader = open_or_throw(w, path);
    }
    TimedSource source(*reader, tracer);
    pjsb::metrics::OnlineMetricsObserver online;
    TimedObserver timed_online(online, tracer, Layer::kReport);
    auto engine = traced_engine(
        w, source.header().max_nodes.value_or(sim::kDefaultNodes), tracer,
        scheduler);
    engine->add_observer(timed_online);
    engine->add_observer(digest);
    {
      const Span span(tracer, Layer::kAdmit);
      engine->set_job_source(source, source_options(w.spec));
    }
    run_steps(*engine, tracer);
    engine->notify_run_end();
    events = engine->stats().events_processed;
    counts = SchedulerCounts::of(*scheduler);
    {
      const Span span(tracer, Layer::kSetup);
      engine.reset();
    }
    r.completed = std::int64_t(online.jobs());
    r.records = source.records();
    r.parse_errors = std::int64_t(reader->error_count());
  } else {
    pjsb::swf::ReadResult loaded;
    {
      const Span span(tracer, Layer::kParse);
      loaded = sim::load_trace(path, w.spec);
    }
    auto engine = traced_engine(
        w, loaded.trace.header.max_nodes.value_or(sim::kDefaultNodes),
        tracer, scheduler);
    engine->add_observer(digest);
    {
      const Span span(tracer, Layer::kAdmit);
      engine->load_trace(loaded.trace);
    }
    run_steps(*engine, tracer);
    engine->notify_run_end();
    events = engine->stats().events_processed;
    counts = SchedulerCounts::of(*scheduler);
    {
      const Span span(tracer, Layer::kReport);
      const auto report =
          pjsb::metrics::compute_report(engine->completed(), engine->stats());
      r.completed = std::int64_t(report.jobs);
    }
    {
      const Span span(tracer, Layer::kSetup);
      engine.reset();
    }
    r.records = std::int64_t(loaded.trace.records.size());
    r.parse_errors = std::int64_t(loaded.errors.size());
  }
  r.wall = seconds_between(start, Clock::now());
  r.digest = digest.value();
  r.profile_steps_max = counts.profile_steps_max;
  r.layers = {
      {"swf.parse_s", tracer.total(Layer::kParse)},
      {"swf.records", double(r.records)},
      {"swf.mb", double(std::filesystem::file_size(path)) / 1e6},
      {"sim.setup_s", tracer.self(Layer::kSetup)},
      {"sim.admit_s", tracer.self(Layer::kAdmit)},
      {"sim.step_s", tracer.total(Layer::kStep)},
      // The last step() call finds no event and ends the loop.
      {"sim.steps", double(tracer.calls(Layer::kStep) - 1)},
      {"sim.events", double(events)},
      {"sim.engine_self_s", tracer.self(Layer::kStep)},
      {"sim.start_s", tracer.self(Layer::kStart)},
      {"sim.starts", double(counts.starts)},
      {"sched.pass_s", tracer.total(Layer::kPass)},
      {"sched.passes", double(tracer.calls(Layer::kPass))},
      {"sched.productive_passes", double(counts.productive_passes)},
      {"sched.pass_self_s", tracer.self(Layer::kPass)},
      {"sched.upkeep_s", tracer.self(Layer::kUpkeep)},
      {"sched.upkeep_calls", double(tracer.calls(Layer::kUpkeep))},
      {"metrics.report_s", tracer.self(Layer::kReport)},
      {"bench.digest_s", tracer.self(Layer::kDigest)},
      {"layers.traced_wall_s", r.wall},
      {"layers.attributed_s", tracer.attributed()},
      {"layers.trace_cost_s", tracer.overhead()},
      {"layers.unattributed_s",
       r.wall - tracer.attributed() - tracer.overhead()},
  };
  return r;
}

/// The program's set-up before the first job is simulated: source open
/// (or the eager parse), engine and scheduler construction, admission
/// of the first lookahead window (or of the whole trace).
double setup_once(const Workload& w, const std::string& path) {
  const auto start = Clock::now();
  const auto config = [&](std::int64_t header_nodes) {
    return sim::spec_engine_config(w.spec, header_nodes);
  };
  if (w.streaming) {
    const auto source = open_or_throw(w, path);
    sim::Engine engine(
        config(source->header().max_nodes.value_or(sim::kDefaultNodes)),
        pjsb::sched::make_scheduler(w.spec.scheduler));
    engine.set_job_source(*source, source_options(w.spec));
    return seconds_between(start, Clock::now());
  }
  const auto loaded = sim::load_trace(path, w.spec);
  sim::Engine engine(
      config(loaded.trace.header.max_nodes.value_or(sim::kDefaultNodes)),
      pjsb::sched::make_scheduler(w.spec.scheduler));
  engine.load_trace(loaded.trace);
  return seconds_between(start, Clock::now());
}

/// One set-up sample: the mean of back-to-back set-ups that fill at
/// least kSetupBatchS, so a set-up of a millisecond is not timed alone.
double setup_sample(const Workload& w, const std::string& path) {
  constexpr double kSetupBatchS = 0.05;
  const auto start = Clock::now();
  double sum = 0.0;
  int n = 0;
  do {
    sum += setup_once(w, path);
    ++n;
  } while (seconds_between(start, Clock::now()) < kSetupBatchS);
  return sum / n;
}

/// Tally one replay: every record must parse and complete, and the
/// decisions must match the reference digest. A digest mismatch fails
/// every record of the replay.
void check_replay(Result& result, const Replay& r, std::uint64_t reference,
                  const std::string& label) {
  const std::int64_t lost =
      r.digest != reference
          ? r.records
          : std::max<std::int64_t>(r.records - r.completed, 0) + r.parse_errors;
  result.attempted += std::max<std::int64_t>(r.records, 1);
  if (lost == 0 && r.records > 0) return;
  result.failed += std::max<std::int64_t>(lost, 1);
  result.failures.push_back(label + (r.digest != reference
                                         ? ": decision digest differs"
                                         : ": records lost or unparsed"));
}

/// One replay of every trace file of the workload, summed.
struct Round {
  std::vector<double> walls;  ///< per file
  std::map<std::string, double> layers;
  std::int64_t profile_steps_max = 0;

  void add(const Replay& r) {
    walls.push_back(r.wall);
    for (const auto& [name, value] : r.layers) layers[name] += value;
    profile_steps_max = std::max(profile_steps_max, r.profile_steps_max);
  }

  /// The per-layer metrics of a traced round, ratios included.
  std::map<std::string, double> layer_metrics() const {
    auto m = layers;
    const double passes = m["sched.passes"];
    m["swf.mb_per_s"] = m["swf.mb"] / m["swf.parse_s"];
    m["sched.productive_pass_ratio"] =
        passes > 0 ? m["sched.productive_passes"] / passes : 0.0;
    m["sched.profile_steps_max"] = double(profile_steps_max);
    m["layers.unattributed_ratio"] =
        m["layers.unattributed_s"] / m["layers.traced_wall_s"];
    return m;
  }
};

}  // namespace

Result run_offline(const Options& options) {
  Workload w;
  std::stringstream files(options.str("trace-files"));
  for (std::string path; std::getline(files, path, ',');) {
    w.paths.push_back(path);
  }
  w.spec = sim::SimulationSpec{}
               .with_scheduler(options.str("scheduler"))
               .with_nodes(options.i64("nodes"));
  w.streaming = options.i64("streaming") != 0;
  if (w.streaming) w.spec.streaming_memory();
  w.spec.validate();
  const double budget = options.f64("seconds");
  const bool trace = options.i64("trace") != 0;

  Result result;
  // The first round warms caches and the allocator and fixes the
  // digests every later replay must reproduce.
  std::vector<std::uint64_t> references;
  std::int64_t jobs = 0;
  for (const auto& path : w.paths) {
    const Replay warmup = untraced(w, path);
    references.push_back(warmup.digest);
    jobs += warmup.records;
    check_replay(result, warmup, warmup.digest, "warm-up replay");
  }
  const auto run_round = [&](bool traced_round) {
    Round round;
    for (std::size_t i = 0; i < w.paths.size(); ++i) {
      const Replay r = traced_round ? traced(w, w.paths[i])
                                    : untraced(w, w.paths[i]);
      check_replay(result, r, references[i],
                   traced_round ? "traced replay" : "replay");
      round.add(r);
    }
    return round;
  };

  std::vector<Round> plain;
  std::vector<Round> traced_rounds;
  // Set-up samples are spread over the run, one per file after each
  // untraced round, and the fastest is reported: on a shared host a
  // set-up of a millisecond swings by half with the neighbours' load,
  // which only ever adds time.
  std::vector<double> setups;
  const auto start = Clock::now();
  constexpr std::size_t kMinRounds = 3;
  while (seconds_between(start, Clock::now()) < budget ||
         plain.size() < kMinRounds ||
         (trace && traced_rounds.size() < kMinRounds)) {
    if (trace && traced_rounds.size() < plain.size()) {
      traced_rounds.push_back(run_round(true));
    } else {
      plain.push_back(run_round(false));
      if (trace) continue;
      for (const auto& path : w.paths) {
        setups.push_back(setup_sample(w, path));
      }
    }
  }
  const double peak_rss = vm_hwm_mb("self");

  if (w.streaming) {
    // The two parser backends must feed the engine identical records.
    Workload fast = w;
    fast.spec.with_parser("fast");
    check_replay(result, untraced(fast, w.paths[0]), references[0],
                 "parser=fast replay");
  }

  // Mean wall time of a round: traced and untraced rounds alternate, so
  // their means see the same host.
  const auto mean_round_wall = [](const std::vector<Round>& rounds) {
    double sum = 0.0;
    for (const auto& round : rounds) {
      for (const double wall : round.walls) sum += wall;
    }
    return sum / double(rounds.size());
  };
  // The fastest replay of each file, summed. A shared host goes through
  // slow spells of seconds to minutes that only ever add time; a run
  // that falls in one still holds fast replays, where its mean does not.
  const auto fastest_round_wall = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < w.paths.size(); ++i) {
      double best = plain.front().walls[i];
      for (const auto& round : plain) best = std::min(best, round.walls[i]);
      sum += best;
    }
    return sum;
  };
  auto& m = result.metrics;
  m["n.rounds"] = double(plain.size());
  m["n.trace_files"] = double(w.paths.size());
  m["n.jobs"] = double(jobs);
  if (!trace) {
    m["jobs_per_s"] = double(jobs) / fastest_round_wall();
    m["peak_rss_mb"] = peak_rss;
    m["setup_s"] = *std::min_element(setups.begin(), setups.end());
    m["n.setup_samples"] = double(setups.size());
    return result;
  }

  std::map<std::string, std::vector<double>> samples;
  for (const auto& round : traced_rounds) {
    for (const auto& [name, value] : round.layer_metrics()) {
      samples[name].push_back(value);
    }
  }
  for (const auto& [name, values] : samples) m[name] = median(values);
  m["n.traced_rounds"] = double(traced_rounds.size());
  m["trace_overhead_ratio"] =
      mean_round_wall(traced_rounds) / mean_round_wall(plain);
  // With the span cost calibrated right, the layers' self times of a
  // traced round add up to an untraced round.
  m["layers.attributed_over_untraced"] =
      m["layers.attributed_s"] / mean_round_wall(plain);
  m["layers.span_cost_ns"] = 1e9 * (Tracer::span_cost().inside +
                                    Tracer::span_cost().outside);
  result.check(std::abs(m["layers.unattributed_ratio"]) <= 0.05,
               "layer self times and span cost cover the traced wall "
               "time within 5%");
  return result;
}

}  // namespace perfbench
