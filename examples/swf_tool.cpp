// swf_tool — the archive maintainer's multitool.
//
// Subcommands:
//   validate <file.swf>              check the consistency rules
//   validate <file.swf> <scheduler-spec> <golden> [--bless] [spec-flags]
//                                    replay under invariant checkers and
//                                    compare (or --bless: regenerate) the
//                                    golden decision-trace snapshot;
//                                    fault flags pin crashy goldens
//   fuzz [seed] [workloads] [jobs]   drive every registered scheduler
//                                    spec through seeded random
//                                    workloads + outages with all
//                                    invariant checkers attached
//   fuzz parse [seed] [cases]        differential parser fuzzing:
//                                    seeded byte-level mutations through
//                                    the reference and production SWF
//                                    readers, asserting identical verdicts
//   stats <file.swf>                 print aggregate statistics
//   anonymize <in.swf> <out.swf>     renumber identities incrementally
//   generate <model> <jobs> <nodes> <load> <out.swf>
//                                    synthesize a model workload
//   convert-iacct <raw> <out.swf> <site>   convert hypercube accounting
//   convert-nqs <raw> <out.swf> <site>     convert NQS/PBS accounting
//   simulate <file.swf> <scheduler-spec> [rank-metric] [spec-flags]
//                                    replay and print metrics
//   stream-simulate <file.swf> <scheduler-spec> [lookahead] [spec-flags]
//                                    constant-memory streaming replay
//   generate-stream <model> <jobs> <nodes> <interarrival> <out.swf>
//                                    stream a synthetic trace to disk
//   trace-summary <trace.jsonl> [top-k]
//                                    summarize a JSONL event trace
//   snapshot <file.swf> <scheduler-spec> <time> <out.snap> [spec-flags]
//                                    run to sim-time <time>, freeze the
//                                    complete engine state into a
//                                    versioned binary snapshot; the
//                                    decisions made so far land in
//                                    <out.snap>.decisions
//   resume <file.snap> [--golden <file>]
//                                    restore a snapshot and run it to
//                                    completion; with --golden, diff the
//                                    combined (prefix + resumed)
//                                    decision trace against a golden
//   whatif <file.snap> <procs> <estimate> [--offset <s>] [--simulate]
//                                    answer "when would this job start?"
//                                    against the frozen state, without
//                                    perturbing it
//   serve <sim-spec> [--socket <path> | --port <n>] [serve-flags]
//                                    run the scheduling daemon: live
//                                    SUBMIT/KILL/QUERY/WHATIF sessions
//                                    over a Unix or loopback TCP socket
//                                    (README "Scheduling daemon")
//   schedulers                       print the policy registry catalogue
//
// validate (golden mode), simulate, stream-simulate and snapshot take
// trailing spec-flags: any SimulationSpec key as `--key value`, with
// '-' for '_' (`--retry-limit 3` is `retry_limit=3`). The spec parser
// validates them, so the flags and the spec grammar cannot drift apart.
// Examples: --trace <path> --timeseries <path> --sample-every <s>
// --profile <path> (README "Observability"), --threads <n> (README
// "Ingest pipeline"), --faults <seed> --mtbf <s> --checkpoint <s>
// --retry-limit <n> --overrun kill (README "Failure & recovery").
// stream-simulate rejects --faults: the crash schedule needs the
// workload horizon up front, which a stream cannot provide.
//
// Scheduler arguments are registry spec strings — quote parameterized
// variants: swf_tool simulate kth.swf "easy reserve_depth=2".
//
// Malformed record lines are fatal: every offending line is reported
// with its physical line number and the tool exits nonzero, so a broken
// archive file cannot silently shrink an experiment's workload.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>

#include "core/swf/anonymize.hpp"
#include "core/swf/convert.hpp"
#include "core/swf/reader.hpp"
#include "core/swf/validator.hpp"
#include "core/swf/writer.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/online.hpp"
#include "obs/trace_read.hpp"
#include "sched/registry.hpp"
#include "serve/server.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "sim/snapshot/whatif.hpp"
#include "util/keyval.hpp"
#include "util/resource.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"
#include "validate/golden.hpp"
#include "validate/invariants.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"
#include "workload/stream.hpp"

namespace {

using namespace pjsb;

int usage() {
  std::cerr <<
      "usage: swf_tool <command> ...\n"
      "  validate <file.swf>\n"
      "  validate <file.swf> <scheduler-spec> <golden-file> [--bless] "
      "[spec-flags]\n"
      "  fuzz [seed] [workloads] [jobs-per-workload]\n"
      "  fuzz parse [seed] [cases]\n"
      "  stats <file.swf>\n"
      "  anonymize <in.swf> <out.swf>\n"
      "  generate <feitelson96|jann97|lublin99|downey97> <jobs> <nodes> "
      "<load> <out.swf>\n"
      "  generate-stream <feitelson96|jann97|lublin99> <jobs> <nodes> "
      "<mean-interarrival-s> <out.swf>\n"
      "  convert-iacct <raw-log> <out.swf> <installation>\n"
      "  convert-nqs <raw-log> <out.swf> <installation>\n"
      "  simulate <file.swf> <scheduler-spec> [rank-metric] [spec-flags]\n"
      "  stream-simulate <file.swf> <scheduler-spec> [lookahead] "
      "[spec-flags]\n"
      "  trace-summary <trace.jsonl> [top-k]\n"
      "  snapshot <file.swf> <scheduler-spec> <time> <out.snap> "
      "[spec-flags]\n"
      "  resume <file.snap> [--golden <golden-file>]\n"
      "  whatif <file.snap> <procs> <estimate-s> [--offset <s>] "
      "[--simulate]\n"
      "  serve <sim-spec> [--socket <path> | --port <n>] [--token <t>]\n"
      "        [--time-scale <x>] [--decisions <csv>]\n"
      "        [--snapshot-on-shutdown <snap>] [--resume <snap>]\n"
      "  schedulers\n"
      "scheduler-spec is a registry spec string, e.g. \"easy\" or\n"
      "\"easy reserve_depth=2\" (run `swf_tool schedulers` for the "
      "catalogue)\n"
      "spec-flags: any simulation-spec key as --key value, '-' for '_',\n"
      "  e.g. --trace <path> --sample-every <s> --threads <n>\n"
      "  --faults <seed> --mtbf <s> --checkpoint <s> --retry-limit <n>\n";
  return 2;
}

/// Load a trace or exit. Malformed records are fatal — each is reported
/// as `path:line: message` and the tool exits 1, rather than silently
/// running the experiment on a shrunken workload. The spec's threads=
/// key sets the parser workers (identical records at any count).
swf::Trace load_or_die(const std::string& path,
                       const sim::SimulationSpec& spec = {}) {
  auto result = sim::load_trace(path, spec);
  if (!result.errors.empty()) {
    for (const auto& e : result.errors) {
      std::cerr << path << ":" << e.line << ": " << e.message << "\n";
    }
    std::cerr << "error: " << result.errors.size()
              << " malformed line(s) in " << path << "\n";
    std::exit(1);
  }
  return std::move(result.trace);
}

using util::peak_rss_mb;

/// A finite number, or nullopt: atof would read "0.7xyz" as 0.7 and
/// "abc" as 0, and from_chars alone accepts "nan" and "inf".
std::optional<double> parse_finite(const std::string& text) {
  const auto value = util::parse_f64(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

int cmd_validate(const std::string& path) {
  const auto trace = load_or_die(path);
  const auto report = swf::validate(trace);
  std::cout << report.to_string();
  return report.clean() ? 0 : 1;
}

/// Build the run's spec from `base` plus trailing spec-flags
/// argv[first..): `--key value` is the SimulationSpec key with '-' for
/// '_', and SimulationSpec::parse is the only validator. `--bless` is
/// the one valueless flag, accepted only when `bless` is given. Returns
/// nullopt with a message on stderr for a malformed flag list or spec.
std::optional<sim::SimulationSpec> spec_with_flags(
    const sim::SimulationSpec& base, int argc, char** argv, int first,
    bool* bless = nullptr) {
  std::string text = base.to_string();
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--bless" && bless) {
      *bless = true;
      continue;
    }
    // Values are quoted, so only the key could inject text into the
    // spec: it must be a bare name (`--trace=x y` is rejected).
    std::string key = flag.rfind("--", 0) == 0 ? flag.substr(2) : "";
    std::replace(key.begin(), key.end(), '-', '_');
    if (key.empty() || key.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") !=
                           std::string::npos) {
      std::cerr << "unknown flag " << flag << "\n";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return std::nullopt;
    }
    text += " " + key + "=" + util::quote_spec_value(argv[++i]);
  }
  try {
    return sim::SimulationSpec::parse(text);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return std::nullopt;
  }
}

/// Golden-trace mode: replay the trace under `scheduler` with every
/// invariant checker attached, then compare the decision trace against
/// the committed snapshot (or regenerate it with --bless). Fault flags
/// feed the same seeded crash schedule the golden was blessed with, so
/// crashy workloads can be pinned too.
int cmd_validate_golden(const std::string& path,
                        const std::string& golden_path,
                        const sim::SimulationSpec& spec, bool bless) {
  const std::string& scheduler = spec.scheduler;
  const auto trace = load_or_die(path, spec);

  auto instance = sched::make_scheduler(scheduler);
  validate::CheckerOptions checker_options;
  checker_options.nodes = spec.nodes.value_or(
      trace.header.max_nodes.value_or(sim::kDefaultNodes));
  checker_options.scheduler = scheduler;
  // Crash kills are expected interruptions, not invariant violations.
  checker_options.outages = spec.faults != 0;
  validate::InvariantChecker checker(checker_options);
  checker.watch(*instance);
  validate::DecisionRecorder recorder;
  sim::replay(trace, std::move(instance), spec,
              sim::ReplayHooks{}.observe(checker).observe(recorder));

  if (!checker.clean()) {
    std::cerr << "invariant violations under " << scheduler << ":\n"
              << checker.summary() << "\n";
    if (bless) {
      // Never enshrine a broken run: blessing from a replay that
      // violated the invariants would make CI green on a regression.
      std::cerr << "refusing to bless " << golden_path
                << " from a dirty run\n";
    }
    return 1;
  }
  // The invariant-checked replay above already recorded the decision
  // trace; compare (or bless) that instead of simulating again.
  const auto csv = validate::decisions_to_csv(recorder.decisions());
  const auto result =
      bless ? validate::bless_golden_csv(csv, golden_path, scheduler)
            : validate::check_golden_csv(csv, golden_path, scheduler);
  std::cout << result.message << "\n";
  if (!result.ok) return 1;
  std::cout << "validate: " << recorder.decisions().size()
            << " decisions, invariants clean\n";
  return 0;
}

int cmd_fuzz(std::uint64_t seed, int workloads, std::size_t jobs) {
  validate::FuzzOptions options;
  options.seed = seed;
  options.workloads = workloads;
  options.jobs = jobs;
  const auto report = validate::run_fuzzer(options);
  std::cout << report.summary() << "\n";
  return report.clean() ? 0 : 1;
}

int cmd_fuzz_parse(std::uint64_t seed, int cases) {
  validate::ParserFuzzOptions options;
  options.seed = seed;
  options.cases = cases;
  const auto report = validate::run_parser_fuzzer(options);
  std::cout << report.summary() << "\n";
  return report.clean() ? 0 : 1;
}

int cmd_stats(const std::string& path) {
  const auto trace = load_or_die(path);
  const auto s = trace.stats();
  util::Table table({"statistic", "value"});
  table.row().cell("jobs").cell(s.jobs);
  table.row().cell("users").cell(s.users);
  table.row().cell("groups").cell(s.groups);
  table.row().cell("executables").cell(s.executables);
  table.row().cell("span").cell(util::format_duration(s.span_seconds));
  table.row().cell("mean procs").cell(s.mean_procs, 2);
  table.row().cell("mean runtime (s)").cell(s.mean_runtime, 1);
  table.row().cell("mean interarrival (s)").cell(s.mean_interarrival, 1);
  table.row().cell("power-of-2 sizes").cell(s.fraction_power_of_two, 3);
  table.row().cell("serial jobs").cell(s.fraction_serial, 3);
  table.row().cell("offered load").cell(s.offered_load, 3);
  table.row().cell("jobs with dependencies").cell(s.with_dependencies);
  std::cout << table.to_string();
  return 0;
}

int cmd_anonymize(const std::string& in, const std::string& out) {
  auto trace = load_or_die(in);
  const auto result = swf::anonymize(trace);
  std::cout << "remapped " << result.users << " users, " << result.groups
            << " groups, " << result.executables << " executables\n";
  return swf::write_swf_file(out, trace) ? 0 : 1;
}

int cmd_generate(const std::string& model, std::size_t jobs,
                 std::int64_t nodes, double load, const std::string& out) {
  workload::ModelKind kind;
  if (model == "feitelson96") kind = workload::ModelKind::kFeitelson96;
  else if (model == "jann97") kind = workload::ModelKind::kJann97;
  else if (model == "lublin99") kind = workload::ModelKind::kLublin99;
  else if (model == "downey97") kind = workload::ModelKind::kDowney97;
  else return usage();

  util::Rng rng(12345);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  auto trace = workload::generate(kind, config, rng);
  trace = workload::scale_to_load(trace, load, nodes);
  if (!swf::write_swf_file(out, trace)) return 1;
  std::cout << "wrote " << jobs << " " << model << " jobs at load " << load
            << " to " << out << "\n";
  return 0;
}

int cmd_convert(bool nqs, const std::string& in, const std::string& out,
                const std::string& site) {
  std::ifstream raw(in);
  if (!raw) {
    std::cerr << "cannot open " << in << "\n";
    return 1;
  }
  auto result = nqs ? swf::convert_nqsacct(raw, site)
                    : swf::convert_iacct(raw, site);
  for (const auto& e : result.errors) {
    std::cerr << in << ":" << e.line << ": " << e.message << "\n";
  }
  if (result.trace.records.empty()) {
    std::cerr << "no convertible records\n";
    return 1;
  }
  const auto report = swf::validate(result.trace);
  std::cout << "converted " << result.trace.records.size() << " jobs ("
            << report.errors() << " validation errors)\n";
  return swf::write_swf_file(out, result.trace) ? 0 : 1;
}

int cmd_generate_stream(const std::string& model, std::uint64_t jobs,
                        std::int64_t nodes, double interarrival,
                        const std::string& out_path) {
  const auto kind = workload::model_kind_from_name(model);
  if (!kind) return usage();

  workload::GeneratorSpec spec;
  spec.kind = *kind;
  spec.config.machine_nodes = nodes;
  if (interarrival > 0) spec.config.mean_interarrival = interarrival;
  spec.seed = 12345;
  spec.max_jobs = jobs;
  workload::ModelJobSource source(spec);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  const auto written = swf::write_swf_stream(out, source);
  if (!out) {
    std::cerr << "write failed: " << out_path << "\n";
    return 1;
  }
  std::cout << "streamed " << written << " " << model << " jobs to "
            << out_path << " (peak rss " << peak_rss_mb() << " MB)\n";
  return 0;
}

int cmd_trace_summary(const std::string& path, std::size_t top_k) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  const auto summary = obs::summarize_trace(in, top_k);
  std::cout << summary.to_string();
  // A trace with no header record is almost certainly not a pjsb
  // trace; report it in the exit code as well as the text.
  return summary.version >= 1 ? 0 : 1;
}

int cmd_stream_simulate(const std::string& path,
                        const sim::SimulationSpec& spec) {
  if (spec.faults != 0) {
    std::cerr << "stream-simulate: --faults needs the workload horizon "
                 "up front; use simulate for fault injection\n";
    return 2;
  }
  // Constant memory: per-job records are not retained; the metrics the
  // report needs are accumulated online by an attached observer.
  const auto source = sim::open_trace_source(path, spec);
  if (source->open_failed()) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }

  metrics::OnlineMetricsObserver online;
  const auto result =
      sim::replay(*source, spec, sim::ReplayHooks{}.observe(online));

  // Malformed lines surface after the replay, exactly like load_or_die.
  if (source->error_count() > 0) {
    for (const auto& e : source->errors()) {
      std::cerr << path << ":" << e.line << ": " << e.message << "\n";
    }
    std::cerr << "error: " << source->error_count()
              << " malformed line(s) in " << path << "\n";
    return 1;
  }

  util::Table table({"metric", "value"});
  table.row().cell("scheduler").cell(spec.scheduler);
  table.row().cell("jobs").cell(result.stats.jobs_completed);
  table.row().cell("mean wait (s)").cell(online.mean_wait(), 1);
  table.row().cell("mean bounded slowdown")
      .cell(online.mean_bounded_slowdown(), 2);
  table.row().cell("backfill ratio").cell(online.backfill_ratio(), 3);
  table.row().cell("utilization").cell(result.stats.utilization(), 3);
  table.row().cell("makespan (s)").cell(result.stats.makespan);
  table.row().cell("records streamed").cell(result.source_pulled);
  table.row().cell("peak rss (MB)").cell(peak_rss_mb(), 1);
  std::cout << table.to_string();
  return 0;
}

int cmd_simulate(const std::string& path, const std::string& rank_metric,
                 const sim::SimulationSpec& spec) {
  // Resolve the metric name (same names campaign `rank =` lines use)
  // before the replay, so a typo fails fast instead of costing the
  // whole simulation; it throws with the valid list.
  std::optional<metrics::MetricId> rank;
  if (!rank_metric.empty()) {
    rank = metrics::metric_from_name(rank_metric);
  }
  const auto trace = load_or_die(path, spec);
  const auto result = sim::replay(trace, spec);
  const auto report = metrics::compute_report(result.completed,
                                              result.stats);
  util::Table table({"metric", "value"});
  table.row().cell("scheduler").cell(spec.scheduler);
  table.row().cell("jobs").cell(report.jobs);
  table.row().cell("mean wait (s)").cell(report.mean_wait, 1);
  table.row().cell("mean bounded slowdown")
      .cell(report.mean_bounded_slowdown, 2);
  table.row().cell("p95 wait (s)").cell(report.p95_wait, 1);
  table.row().cell("utilization").cell(report.utilization, 3);
  if (spec.faults != 0 || report.jobs_killed > 0) {
    table.row().cell("jobs killed").cell(report.jobs_killed);
    table.row().cell("jobs dropped").cell(report.jobs_dropped);
    table.row().cell("mean restarts").cell(report.mean_restarts, 3);
    table.row().cell("wasted fraction").cell(report.wasted_fraction, 4);
  }
  if (rank) {
    table.row().cell(std::string("selected ") + metrics::metric_name(*rank))
        .cell(metrics::metric_value(report, *rank), 3);
  }
  std::cout << table.to_string();
  return 0;
}

/// Run `path` under `scheduler` up to sim-time `at_time`, then freeze
/// the engine into `out` (snapshot format v1). The decision prefix —
/// every decision made before the freeze — is written to
/// `<out>.decisions` so `resume --golden` can reconstruct the full
/// trace for comparison against an uninterrupted golden.
int cmd_snapshot(const std::string& path, std::int64_t at_time,
                 const std::string& out, const sim::SimulationSpec& spec) {
  const auto trace = load_or_die(path, spec);
  const auto config = sim::spec_engine_config(
      spec, trace.header.max_nodes.value_or(sim::kDefaultNodes));

  sim::Engine engine(config, sched::make_scheduler(spec.scheduler));
  validate::DecisionRecorder recorder;
  engine.add_observer(recorder);
  // Same seeded crash schedule replay() would generate, so a resumed
  // crashy run matches the uninterrupted crashy golden.
  outage::OutageLog crashes;
  if (spec.faults != 0) {
    crashes = sim::fault::generate_crashes(spec.fault_model(),
                                           trace.horizon(), config.nodes);
    engine.add_outages(crashes);
  }
  engine.load_trace(trace);
  // Snapshots are legal only between steps: process whole event
  // timestamps until the next one would pass the snapshot point.
  while (true) {
    const auto t = engine.next_event_time();
    if (!t || *t > at_time) break;
    engine.step();
  }
  sim::snapshot::write_file(out, engine.snapshot());
  std::ofstream decisions(out + ".decisions");
  decisions << validate::decisions_to_csv(recorder.decisions());
  if (!decisions) {
    std::cerr << "cannot write " << out << ".decisions\n";
    return 1;
  }
  std::cout << "snapshot at t=" << engine.now() << " ("
            << recorder.decisions().size() << " decisions so far) -> "
            << out << "\n";
  return 0;
}

/// Concatenate the snapshot's decision prefix with the resumed run's
/// decisions: the prefix keeps its header line, the resumed CSV drops
/// its own. A missing prefix file means the snapshot was taken before
/// any decisions (or by another driver); the resumed CSV stands alone.
std::string combine_decision_csv(const std::string& prefix_path,
                                 const std::string& resumed_csv) {
  std::ifstream prefix(prefix_path);
  if (!prefix) return resumed_csv;
  std::string head((std::istreambuf_iterator<char>(prefix)),
                   std::istreambuf_iterator<char>());
  const auto nl = resumed_csv.find('\n');
  return head + resumed_csv.substr(nl == std::string::npos ? resumed_csv.size()
                                                           : nl + 1);
}

int cmd_resume(const std::string& snap_path,
               const std::string& golden_path) {
  auto engine = sim::Engine::restore(sim::snapshot::read_file(snap_path));
  if (engine->needs_job_source()) {
    std::cerr << "resume: snapshot has an active streaming job source; "
                 "the CLI can only resume self-contained (materialized-"
                 "trace) snapshots\n";
    return 2;
  }
  validate::DecisionRecorder recorder;
  engine->add_observer(recorder);
  engine->run();
  engine->notify_run_end();
  const auto stats = engine->stats();

  if (!golden_path.empty()) {
    const auto combined = combine_decision_csv(
        snap_path + ".decisions",
        validate::decisions_to_csv(recorder.decisions()));
    const auto result = validate::check_golden_csv(
        combined, golden_path, "resume " + snap_path);
    std::cout << result.message << "\n";
    if (!result.ok) return 1;
  }
  util::Table table({"metric", "value"});
  table.row().cell("resumed decisions")
      .cell(std::int64_t(recorder.decisions().size()));
  table.row().cell("jobs completed").cell(stats.jobs_completed);
  table.row().cell("utilization").cell(stats.utilization(), 3);
  table.row().cell("makespan (s)").cell(stats.makespan);
  std::cout << table.to_string();
  return 0;
}

int cmd_whatif(const std::string& snap_path, std::int64_t procs,
               std::int64_t estimate, std::int64_t offset, bool simulate) {
  sim::WhatIfService service(sim::snapshot::read_file(snap_path));
  sim::WhatIfQuery query;
  query.procs = procs;
  query.estimate = estimate;
  query.submit_offset = offset;
  query.simulate = simulate;
  const auto answer = service.query(query);

  util::Table table({"metric", "value"});
  table.row().cell("snapshot time").cell(service.snapshot_time());
  table.row().cell("submit time")
      .cell(service.snapshot_time() + std::max<std::int64_t>(0, offset));
  table.row().cell("mode").cell(answer.simulated ? "simulate" : "predict");
  if (answer.start) {
    table.row().cell("start time").cell(*answer.start);
    table.row().cell("wait (s)").cell(*answer.wait);
  } else {
    table.row().cell("start time")
        .cell(simulate ? "never (run drained)" : "unknown (policy cannot "
                                                 "predict; try --simulate)");
  }
  std::cout << table.to_string();
  return 0;
}

/// The scheduling daemon (README "Scheduling daemon"): build an engine
/// from a SimulationSpec string (or restore one from a snapshot), bind
/// the endpoint, and serve sessions until SHUTDOWN / SIGTERM / SIGINT.
int cmd_serve(const std::string& spec_text, int argc, char** argv,
              int first) {
  serve::ServerConfig config;
  config.handle_signals = true;
  std::string resume_path;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "serve: " << flag << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--socket") {
      config.socket_path = value;
    } else if (flag == "--port") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0 || *n > 65535) {
        std::cerr << "serve: --port must be in [0, 65535] "
                     "(0 = ephemeral)\n";
        return 2;
      }
      config.tcp_port = int(*n);
    } else if (flag == "--token") {
      config.auth_token = value;
    } else if (flag == "--time-scale") {
      const auto scale = parse_finite(value);
      if (!scale || *scale < 0) {
        std::cerr << "serve: --time-scale must be a number >= 0 "
                     "(0 = logical time)\n";
        return 2;
      }
      config.time_scale = *scale;
    } else if (flag == "--decisions") {
      config.decisions_path = value;
    } else if (flag == "--snapshot-on-shutdown") {
      config.snapshot_on_shutdown = value;
    } else if (flag == "--resume") {
      resume_path = value;
    } else {
      std::cerr << "serve: unknown flag " << flag << "\n";
      return 2;
    }
  }

  std::unique_ptr<sim::Engine> engine;
  if (!resume_path.empty()) {
    engine = sim::Engine::restore(sim::snapshot::read_file(resume_path));
  } else if (spec_text.empty()) {
    std::cerr << "serve: need a sim-spec (e.g. \"scheduler=conservative "
                 "nodes=32\") or --resume <snap>\n";
    return 2;
  } else {
    auto spec = sim::SimulationSpec::parse(spec_text);
    spec.validate();
    engine = std::make_unique<sim::Engine>(
        sim::spec_engine_config(spec,
                                spec.nodes.value_or(sim::kDefaultNodes)),
        sched::make_scheduler(spec.scheduler));
  }

  serve::Server server(std::move(config), std::move(engine));
  server.start();
  if (server.port() > 0) {
    std::cout << "serving on 127.0.0.1:" << server.port() << "\n";
  }
  server.wait();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "validate" && argc == 3) return cmd_validate(argv[2]);
    if (cmd == "validate" && argc >= 5) {
      bool bless = false;
      const auto spec = spec_with_flags(
          sim::SimulationSpec{}.with_scheduler(argv[3]), argc, argv, 5,
          &bless);
      if (!spec) return 2;
      return cmd_validate_golden(argv[2], argv[4], *spec, bless);
    }
    if (cmd == "fuzz" && argc >= 3 && std::string(argv[2]) == "parse" &&
        argc <= 5) {
      using OptI64 = std::optional<std::int64_t>;
      const OptI64 seed = argc > 3 ? util::parse_i64(argv[3]) : OptI64(1);
      const OptI64 cases = argc > 4 ? util::parse_i64(argv[4]) : OptI64(200);
      if (!seed || !cases || *seed < 0 || *cases <= 0) {
        std::cerr << "fuzz parse: seed must be a non-negative integer, "
                     "cases a positive integer\n";
        return 2;
      }
      return cmd_fuzz_parse(std::uint64_t(*seed), int(*cases));
    }
    if (cmd == "fuzz" && argc >= 2 && argc <= 5) {
      // atoll would map a mangled seed ("1e5", truncated paste) to 0
      // and silently fuzz the wrong stream; insist on clean integers
      // so a reported reproduction seed reproduces or errors.
      using OptI64 = std::optional<std::int64_t>;
      const OptI64 seed = argc > 2 ? util::parse_i64(argv[2]) : OptI64(1);
      const OptI64 workloads =
          argc > 3 ? util::parse_i64(argv[3]) : OptI64(3);
      const OptI64 jobs = argc > 4 ? util::parse_i64(argv[4]) : OptI64(120);
      if (!seed || !workloads || !jobs || *seed < 0 || *workloads <= 0 ||
          *jobs <= 0) {
        std::cerr << "fuzz: seed must be a non-negative integer, "
                     "workloads/jobs positive integers\n";
        return 2;
      }
      return cmd_fuzz(std::uint64_t(*seed), int(*workloads),
                      std::size_t(*jobs));
    }
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
    if (cmd == "anonymize" && argc == 4) {
      return cmd_anonymize(argv[2], argv[3]);
    }
    if ((cmd == "generate" || cmd == "generate-stream") && argc == 7) {
      // atoll would accept "12abc" and turn a typo'd "-1" into a huge
      // count; zero nodes would write a trace validate rejects.
      const auto jobs = util::parse_i64(argv[3]);
      const auto nodes = util::parse_i64(argv[4]);
      if (!jobs || !nodes || *jobs < 1 || *nodes < 1) {
        std::cerr << cmd << ": jobs and nodes must be positive integers\n";
        return 2;
      }
      // A load must be positive; an interarrival of 0 keeps the model's
      // default.
      const bool rate_is_load = cmd == "generate";
      const auto rate = parse_finite(argv[5]);
      if (!rate || *rate < 0 || (rate_is_load && *rate == 0)) {
        std::cerr << cmd
                  << (rate_is_load
                          ? ": load must be a positive number\n"
                          : ": interarrival must be a number >= 0 (0 keeps "
                            "the model default)\n");
        return 2;
      }
      if (rate_is_load) {
        return cmd_generate(argv[2], std::size_t(*jobs), *nodes, *rate,
                            argv[6]);
      }
      return cmd_generate_stream(argv[2], std::uint64_t(*jobs), *nodes,
                                 *rate, argv[6]);
    }
    if (cmd == "stream-simulate" && argc >= 4) {
      auto base = sim::SimulationSpec{}.with_scheduler(argv[3])
                      .streaming_memory();
      int next = 4;
      // The optional lookahead is positional; anything starting with
      // "--" is a spec-flag instead.
      if (next < argc && argv[next][0] != '-') {
        const auto lookahead = util::parse_i64(argv[next++]);
        if (!lookahead || *lookahead <= 0) {
          std::cerr << "stream-simulate: lookahead must be positive\n";
          return 2;
        }
        base.with_lookahead(std::size_t(*lookahead));
      }
      const auto spec = spec_with_flags(base, argc, argv, next);
      if (!spec) return 2;
      return cmd_stream_simulate(argv[2], *spec);
    }
    if (cmd == "convert-iacct" && argc == 5) {
      return cmd_convert(false, argv[2], argv[3], argv[4]);
    }
    if (cmd == "convert-nqs" && argc == 5) {
      return cmd_convert(true, argv[2], argv[3], argv[4]);
    }
    if (cmd == "simulate" && argc >= 4) {
      std::string rank_metric;
      int next = 4;
      if (next < argc && argv[next][0] != '-') rank_metric = argv[next++];
      const auto spec = spec_with_flags(
          sim::SimulationSpec{}.with_scheduler(argv[3]), argc, argv, next);
      if (!spec) return 2;
      return cmd_simulate(argv[2], rank_metric, *spec);
    }
    if (cmd == "trace-summary" && (argc == 3 || argc == 4)) {
      long long top_k = 10;
      if (argc == 4) {
        const auto n = util::parse_i64(argv[3]);
        if (!n || *n < 1) {
          std::cerr << "trace-summary: top-k must be a positive integer\n";
          return 2;
        }
        top_k = *n;
      }
      return cmd_trace_summary(argv[2], std::size_t(top_k));
    }
    if (cmd == "snapshot" && argc >= 6) {
      const auto at_time = util::parse_i64(argv[4]);
      if (!at_time || *at_time < 0) {
        std::cerr << "snapshot: time must be a non-negative integer "
                     "(sim-seconds)\n";
        return 2;
      }
      const auto spec = spec_with_flags(
          sim::SimulationSpec{}.with_scheduler(argv[3]), argc, argv, 6);
      if (!spec) return 2;
      return cmd_snapshot(argv[2], *at_time, argv[5], *spec);
    }
    if (cmd == "resume" && (argc == 3 || argc == 5)) {
      std::string golden;
      if (argc == 5) {
        if (std::string(argv[3]) != "--golden") return usage();
        golden = argv[4];
      }
      return cmd_resume(argv[2], golden);
    }
    if (cmd == "whatif" && argc >= 5) {
      const auto procs = util::parse_i64(argv[3]);
      const auto estimate = util::parse_i64(argv[4]);
      if (!procs || *procs < 1 || !estimate || *estimate < 1) {
        std::cerr << "whatif: procs and estimate must be positive "
                     "integers\n";
        return 2;
      }
      std::int64_t offset = 0;
      bool simulate = false;
      for (int i = 5; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--simulate") {
          simulate = true;
        } else if (flag == "--offset" && i + 1 < argc) {
          const auto n = util::parse_i64(argv[++i]);
          if (!n) {
            std::cerr << "--offset must be an integer (sim-seconds)\n";
            return 2;
          }
          offset = *n;
        } else {
          std::cerr << "whatif: unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_whatif(argv[2], *procs, *estimate, offset, simulate);
    }
    if (cmd == "serve" && argc >= 3) {
      // The spec is positional, but `serve --resume x.snap` has no
      // spec: the snapshot carries the full engine configuration.
      const bool has_spec = argv[2][0] != '-';
      return cmd_serve(has_spec ? argv[2] : "", argc, argv,
                       has_spec ? 3 : 2);
    }
    if (cmd == "schedulers" && argc == 2) {
      std::cout << sched::Registry::global().help();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  // Unknown subcommand or a known one with a malformed argument list:
  // name the offender, then print the full catalogue (exit 2 either
  // way, same as every other usage error).
  std::cerr << "swf_tool: unknown or malformed command '" << cmd << "'\n";
  return usage();
}
