// swf_tool — pjsb's command-line tool: archive upkeep, replays,
// snapshots, the scheduling daemon and its client, and campaigns.
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
//   client <mode> ... (--socket <path> | --port <n>) [--token <t>]
//                                    talk to a running daemon; modes:
//     replay <file.swf> [--whatif-every <n>] [--query-every <n>] [--drain]
//                                    live-submit every record in file
//                                    order, normalized as
//                                    sim::SimJob::from_record does, so
//                                    the daemon's decision stream equals
//                                    an offline replay's byte for byte;
//                                    WHATIF/QUERY reads interleave every
//                                    n submissions, --drain runs the
//                                    backlog dry afterwards
//     cmd <raw request line ...>     send one protocol line (quote it if
//                                    it carries protocol --flags)
//     barrage <threads> <queries>    concurrent WHATIF load; prints qps
//     status | drain | shutdown      one-shot lifecycle verbs
//   campaign <spec-file>|--demo [--threads <n>] [--out <prefix>]
//            [--rank <metric>] [--quiet]
//                                    run an evaluation campaign
//                                    (src/exp/campaign.hpp grammar) and
//                                    write <prefix>_cells.csv,
//                                    <prefix>_summary.csv, <prefix>.json;
//                                    --demo runs the built-in campaign
//   schedulers                       print the policy registry catalogue
//
// Every subcommand reads its arguments the same way (class Flags):
// positional arguments first, then `--key value` flags with '-' read
// as '_'. Only --bless, --simulate, --drain, --quiet and --demo take no
// value. Unknown and repeated flags and malformed numbers are usage
// errors (exit 2), raised before any file is read or socket opened.
//
// validate (golden mode), simulate, stream-simulate and snapshot take
// trailing spec-flags: any SimulationSpec key as `--key value`
// (`--retry-limit 3` is `retry_limit=3`). The spec parser validates
// them, so the flags and the spec grammar cannot drift apart.
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
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/swf/anonymize.hpp"
#include "core/swf/convert.hpp"
#include "core/swf/reader.hpp"
#include "core/swf/validator.hpp"
#include "core/swf/writer.hpp"
#include "exp/campaign.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/online.hpp"
#include "obs/trace_read.hpp"
#include "sched/registry.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/fault/fault.hpp"
#include "sim/job.hpp"
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

constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kIntLimit = std::numeric_limits<int>::max();

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
      "        [--snapshot-on-shutdown <snap>]\n"
      "        (--resume <snap> in place of <sim-spec>)\n"
      "  client <mode> (--socket <path> | --port <n>) [--token <t>], "
      "mode one of:\n"
      "        replay <file.swf> [--whatif-every <n>] [--query-every <n>] "
      "[--drain]\n"
      "        cmd <raw request line ...>\n"
      "        barrage <threads> <queries-per-thread>\n"
      "        status | drain | shutdown\n"
      "  campaign <spec-file>|--demo [--threads <n>] [--out <prefix>] "
      "[--rank <metric>] [--quiet]\n"
      "  schedulers\n"
      "arguments: positionals first, then --key value flags, '-' for '_'\n"
      "scheduler-spec is a registry spec string, e.g. \"easy\" or\n"
      "\"easy reserve_depth=2\" (run `swf_tool schedulers` for the "
      "catalogue)\n"
      "spec-flags: any simulation-spec key as --key value,\n"
      "  e.g. --trace <path> --sample-every <s> --threads <n>\n"
      "  --faults <seed> --mtbf <s> --checkpoint <s> --retry-limit <n>\n";
  return 2;
}

/// A malformed command line; main reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `text` as an integer in [lo, hi], or a UsageError naming `what`:
/// atoi would read "4x" as 4 and "abc" as 0, and a mangled seed would
/// then silently fuzz the wrong stream.
std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t lo, std::int64_t hi = kIntMax) {
  const auto n = util::parse_i64(text);
  if (n && *n >= lo && *n <= hi) return *n;
  std::string bound;
  if (lo > kIntMin) {
    bound = hi < kIntMax ? " in [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]"
                         : " >= " + std::to_string(lo);
  } else if (hi < kIntMax) {
    bound = " <= " + std::to_string(hi);
  }
  throw UsageError(what + " must be an integer" + bound + ", not '" + text +
                   "'");
}

/// A finite number, or nullopt: atof would read "0.7xyz" as 0.7 and
/// "abc" as 0, and from_chars alone accepts "nan" and "inf".
std::optional<double> parse_finite(const std::string& text) {
  const auto value = util::parse_f64(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

/// One subcommand's arguments: positionals first, then `--key value`
/// flags with '-' read as '_'. The constructor rejects malformed and
/// repeated flags and a flag missing its value; the accessors consume
/// flags by key (spelled with '_'); whatever no accessor consumed
/// becomes SimulationSpec keys (spec()) or a usage error (done()).
/// Errors name the flag as the user typed it.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    int i = first;
    for (; i < argc && argv[i][0] != '-'; ++i) positional_.push_back(argv[i]);
    while (i < argc) {
      Flag flag{argv[i++]};
      if (flag.typed[0] != '-') {
        throw UsageError("argument '" + flag.typed + "' after the flags");
      }
      // Values are quoted into spec text, so only the key could inject
      // text there: it must be a bare name (`--trace=x y` is rejected).
      flag.key = flag.typed.rfind("--", 0) == 0 ? flag.typed.substr(2) : "";
      std::replace(flag.key.begin(), flag.key.end(), '-', '_');
      if (flag.key.empty() ||
          flag.key.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") !=
              std::string::npos) {
        throw UsageError("unknown flag " + flag.typed);
      }
      for (const Flag& seen : flags_) {
        if (seen.key == flag.key) {
          throw UsageError(flag.typed + " given twice");
        }
      }
      if (!is_switch(flag.key)) {
        if (i >= argc) throw UsageError(flag.typed + " needs a value");
        flag.value = argv[i++];
      }
      flags_.push_back(std::move(flag));
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// A value-less flag: true when given.
  bool take_switch(const std::string& key) { return take_flag(key) != nullptr; }

  std::optional<std::string> take(const std::string& key) {
    const Flag* flag = take_flag(key);
    if (!flag) return std::nullopt;
    return flag->value;
  }

  std::optional<std::int64_t> take_int(const std::string& key,
                                       std::int64_t lo,
                                       std::int64_t hi = kIntMax) {
    const Flag* flag = take_flag(key);
    if (!flag) return std::nullopt;
    return parse_int(flag->value, flag->typed, lo, hi);
  }

  /// `base` plus every flag not yet consumed, as SimulationSpec keys;
  /// SimulationSpec::parse is their only validator.
  sim::SimulationSpec spec(const sim::SimulationSpec& base) {
    std::string text = base.to_string();
    try {
      for (Flag& flag : flags_) {
        if (flag.taken) continue;
        if (is_switch(flag.key)) throw UsageError("unknown flag " + flag.typed);
        flag.taken = true;
        text += " " + flag.key + "=" + util::quote_spec_value(flag.value);
      }
      return sim::SimulationSpec::parse(text);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }

  /// Rejects every flag no accessor consumed.
  void done() const {
    for (const Flag& flag : flags_) {
      if (!flag.taken) throw UsageError("unknown flag " + flag.typed);
    }
  }

 private:
  struct Flag {
    std::string typed;
    std::string key;
    std::string value;
    bool taken = false;
  };

  static bool is_switch(const std::string& key) {
    return key == "bless" || key == "simulate" || key == "drain" ||
           key == "quiet" || key == "demo";
  }

  const Flag* take_flag(const std::string& key) {
    for (Flag& flag : flags_) {
      if (flag.key == key) {
        flag.taken = true;
        return &flag;
      }
    }
    return nullptr;
  }

  std::vector<std::string> positional_;
  std::vector<Flag> flags_;
};

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

int cmd_validate(const std::string& path) {
  const auto trace = load_or_die(path);
  const auto report = swf::validate(trace);
  std::cout << report.to_string();
  return report.clean() ? 0 : 1;
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
  const auto kind = workload::model_kind_from_name(model);
  if (!kind) return usage();

  util::Rng rng(12345);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  auto trace = workload::generate(*kind, config, rng);
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

/// The first key set in `spec` that a served engine would ignore, or
/// nullptr. The daemon builds its engine from spec_engine_config and
/// the scheduler alone: the crash schedule, the sinks and the source
/// window are applied by sim::replay, which it never calls, and SUBMIT
/// carries neither dependency fields nor outage announcements.
const char* unserved_key(const sim::SimulationSpec& spec) {
  const sim::SimulationSpec d;
  if (spec.faults != d.faults) return "faults";
  if (spec.trace != d.trace) return "trace";
  if (spec.timeseries != d.timeseries) return "timeseries";
  if (spec.profile != d.profile) return "profile";
  if (spec.lookahead != d.lookahead) return "lookahead";
  if (spec.max_jobs != d.max_jobs) return "max_jobs";
  if (spec.threads != d.threads) return "threads";
  if (spec.closed_loop != d.closed_loop) return "closed_loop";
  if (spec.deliver_announcements != d.deliver_announcements) return "announce";
  return nullptr;
}

/// The scheduling daemon (README "Scheduling daemon"): build an engine
/// from a SimulationSpec string (or restore one from a snapshot), bind
/// the endpoint, and serve sessions until SHUTDOWN / SIGTERM / SIGINT.
/// Neither --socket nor --port serves an ephemeral loopback TCP port.
int cmd_serve(const std::string& spec_text, Flags& args) {
  serve::ServerConfig config;
  config.handle_signals = true;
  const auto socket = args.take("socket");
  const auto port = args.take_int("port", 0, 65535);
  if (socket && port) {
    throw UsageError("--socket and --port are exclusive");
  }
  config.socket_path = socket.value_or("");
  config.tcp_port = int(port.value_or(0));
  config.auth_token = args.take("token").value_or("");
  if (const auto text = args.take("time_scale")) {
    const auto scale = parse_finite(*text);
    if (!scale || *scale < 0) {
      throw UsageError("--time-scale must be a number >= 0 (0 = logical "
                       "time)");
    }
    config.time_scale = *scale;
  }
  config.decisions_path = args.take("decisions").value_or("");
  config.snapshot_on_shutdown =
      args.take("snapshot_on_shutdown").value_or("");
  const auto resume_path = args.take("resume");
  args.done();

  std::unique_ptr<sim::Engine> engine;
  if (resume_path) {
    if (!spec_text.empty()) {
      throw UsageError("a sim-spec and --resume are exclusive: the "
                       "snapshot carries the engine's configuration");
    }
    engine = sim::Engine::restore(sim::snapshot::read_file(*resume_path));
  } else if (spec_text.empty()) {
    throw UsageError("need a sim-spec (e.g. \"scheduler=conservative "
                     "nodes=32\") or --resume <snap>");
  } else {
    sim::SimulationSpec spec;
    try {
      spec = sim::SimulationSpec::parse(spec_text);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    if (const char* key = unserved_key(spec)) {
      throw UsageError(std::string(key) +
                       "= has no effect on a served engine; serve takes "
                       "scheduler=, nodes=, the recovery keys, "
                       "retain_completed= and recycle_slots=");
    }
    engine = std::make_unique<sim::Engine>(
        sim::spec_engine_config(spec,
                                spec.nodes.value_or(sim::kDefaultNodes)),
        sched::make_scheduler(spec.scheduler));
  }

  serve::Server server(std::move(config), std::move(engine));
  server.start();
  if (server.port() > 0) {
    std::cout << "serving on 127.0.0.1:" << server.port() << std::endl;
  }
  server.wait();
  return 0;
}

struct Endpoint {
  std::string socket_path;
  int port = 0;
  std::string token;
};

serve::Client connect(const Endpoint& endpoint) {
  auto client = endpoint.socket_path.empty()
                    ? serve::Client::connect_tcp(endpoint.port)
                    : serve::Client::connect_unix(endpoint.socket_path);
  client.handshake(endpoint.token, "swf_tool");
  return client;
}

int fail(const serve::Response& response, const char* what) {
  std::cerr << what << ": ERR " << response.code << " "
            << response.message << "\n";
  return 1;
}

/// SWF traces list records in nondecreasing submit order; submitting in
/// file order is what makes the live stream reproduce the offline event
/// ordering exactly.
int client_replay(const Endpoint& endpoint, const std::string& path,
                  std::int64_t whatif_every, std::int64_t query_every,
                  bool drain) {
  auto result = swf::read_swf_file(path);
  if (!result.errors.empty()) {
    std::cerr << "replay: " << result.errors.size()
              << " malformed line(s) in " << path << "\n";
    return 1;
  }
  auto client = connect(endpoint);
  std::int64_t submitted = 0;
  std::int64_t last_id = 0;
  for (const auto& record : result.trace.records) {
    // Mirror SimJob::from_record so the daemon admits exactly the job
    // an offline replay would.
    const auto job = sim::SimJob::from_record(record);
    const auto response = client.submit(job.procs, job.estimate, job.submit,
                                        job.runtime, job.id, job.user_id);
    if (!response.ok) return fail(response, "SUBMIT");
    ++submitted;
    last_id = response.field_i64("id").value_or(job.id);
    if (whatif_every > 0 && submitted % whatif_every == 0) {
      const auto answer = client.whatif(job.procs, job.estimate);
      if (!answer.ok) return fail(answer, "WHATIF");
    }
    if (query_every > 0 && submitted % query_every == 0) {
      const auto answer = client.query(last_id);
      if (!answer.ok) return fail(answer, "QUERY");
    }
  }
  if (drain) {
    const auto response = client.drain();
    if (!response.ok) return fail(response, "DRAIN");
    std::cout << "drained: time="
              << response.field("time").value_or("?") << " decisions="
              << response.field("decisions").value_or("?") << "\n";
  }
  std::cout << "submitted " << submitted << " job(s) from " << path
            << "\n";
  return 0;
}

int client_barrage(const Endpoint& endpoint, int threads,
                   std::int64_t queries) {
  std::atomic<std::int64_t> answered{0};
  std::atomic<bool> failed{false};
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        auto client = connect(endpoint);
        for (std::int64_t q = 0; q < queries; ++q) {
          // Deterministic shape variety, distinct per thread.
          const std::int64_t procs = 1 + (t * 7 + q) % 16;
          const std::int64_t estimate = 60 * (1 + (q % 32));
          if (!client.whatif(procs, estimate).ok) {
            failed = true;
            return;
          }
          ++answered;
        }
      } catch (const std::exception& e) {
        std::cerr << "barrage thread " << t << ": " << e.what() << "\n";
        failed = true;
      }
    });
  }
  for (auto& thread : pool) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    begin)
          .count();
  std::cout << "answered " << answered.load() << " what-if queries in "
            << seconds << "s ("
            << (seconds > 0 ? double(answered.load()) / seconds : 0.0)
            << " qps)\n";
  return failed ? 1 : 0;
}

/// The daemon's command-line client. Every argument is checked before
/// the first connection.
int cmd_client(Flags& args) {
  const auto& pos = args.positional();
  const std::string mode = pos.empty() ? "" : pos[0];
  const auto socket = args.take("socket");
  const auto port = args.take_int("port", 1, 65535);
  if (socket.has_value() == port.has_value()) {
    throw UsageError("needs exactly one of --socket <path> and --port <n>");
  }
  const Endpoint endpoint{socket.value_or(""), int(port.value_or(0)),
                          args.take("token").value_or("")};
  if (mode == "replay" && pos.size() == 2) {
    const auto whatif_every = args.take_int("whatif_every", 0).value_or(0);
    const auto query_every = args.take_int("query_every", 0).value_or(0);
    const bool drain = args.take_switch("drain");
    args.done();
    return client_replay(endpoint, pos[1], whatif_every, query_every, drain);
  }
  if (mode == "barrage" && pos.size() == 3) {
    const auto threads = parse_int(pos[1], "barrage threads", 1, kIntLimit);
    const auto queries = parse_int(pos[2], "barrage queries", 1);
    args.done();
    return client_barrage(endpoint, int(threads), queries);
  }
  const bool raw = mode == "cmd" && pos.size() >= 2;
  if (!raw && !((mode == "status" || mode == "drain" || mode == "shutdown") &&
                pos.size() == 1)) {
    throw UsageError("unknown or malformed mode '" + mode + "'");
  }
  args.done();
  std::string line;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    line += (i > 1 ? " " : "") + pos[i];
  }
  auto client = connect(endpoint);
  const auto response = raw                ? client.request_line(line)
                        : mode == "status" ? client.status()
                        : mode == "drain"  ? client.drain()
                                           : client.shutdown();
  std::cout << serve::serialize_response(response) << "\n";
  return response.ok ? 0 : 1;
}

/// Built-in demo campaign (2 synthetic workloads x 5 schedulers —
/// including a parameterized EASY variant — x open/closed loop x 2 seed
/// replications); also a living example of the spec format.
constexpr const char* kDemoCampaign = R"(# Built-in demo campaign.
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

bool write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out) std::cerr << "cannot write " << path << "\n";
  return bool(out);
}

/// A full evaluation campaign from a declarative spec file — the
/// paper's standardized-comparison workflow in one command. --rank
/// overrides the spec's `rank =` line.
int cmd_campaign(Flags& args) {
  const auto& pos = args.positional();
  const bool demo = args.take_switch("demo");
  if (pos.size() != (demo ? 0u : 1u)) {
    throw UsageError("needs a spec file or --demo, not both");
  }
  const int threads = int(args.take_int("threads", 0, kIntLimit).value_or(0));
  const std::string prefix = args.take("out").value_or("campaign");
  std::optional<metrics::MetricId> rank;
  if (const auto name = args.take("rank")) {
    try {
      rank = metrics::metric_from_name(*name);
    } catch (const std::invalid_argument& e) {
      throw UsageError(std::string("--rank: ") + e.what());
    }
  }
  const bool quiet = args.take_switch("quiet");
  args.done();

  exp::CampaignSpec spec;
  if (demo) {
    spec = exp::parse_campaign_spec_string(kDemoCampaign);
  } else {
    std::ifstream in(pos[0]);
    if (!in) {
      std::cerr << "cannot open spec file: " << pos[0] << "\n";
      return 1;
    }
    spec = exp::parse_campaign_spec(in);
  }
  if (rank) spec.rank_metric = *rank;

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
  const auto run = exp::run_campaign(spec, options);
  const auto report = exp::aggregate(run);
  const std::string cells_path = prefix + "_cells.csv";
  const std::string summary_path = prefix + "_summary.csv";
  const std::string json_path = prefix + ".json";
  if (!write_text(cells_path, exp::cells_csv(run)) ||
      !write_text(summary_path, exp::summary_csv(run, report)) ||
      !write_text(json_path, exp::to_json(run, report))) {
    return 1;
  }
  std::cout << "wrote " << cells_path << ", " << summary_path << ", "
            << json_path << "\n";
  if (!spec.telemetry_dir.empty()) {
    // Per-cell traces already landed in the telemetry dir during the
    // run; the rollup CSV joins them under the same roof. Skipped
    // deterministic replications share replication 0's trace file, so
    // the directory can hold fewer files than cells.
    const std::string telemetry_path = spec.telemetry_dir + "/telemetry.csv";
    if (!write_text(telemetry_path, exp::telemetry_csv(run))) return 1;
    std::cout << "wrote " << telemetry_path << " and per-cell traces in "
              << spec.telemetry_dir << "/\n";
  }
  std::cout << "\n" << exp::ranking_table(run, report, spec.rank_metric);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    Flags args(argc, argv, 2);
    const auto& pos = args.positional();
    const std::size_t n = pos.size();
    const auto with_scheduler = [&pos](std::size_t i) {
      return sim::SimulationSpec{}.with_scheduler(pos[i]);
    };
    if (cmd == "validate" && n == 3) {
      const bool bless = args.take_switch("bless");
      return cmd_validate_golden(pos[0], pos[2], args.spec(with_scheduler(1)),
                                 bless);
    }
    if (cmd == "simulate" && (n == 2 || n == 3)) {
      return cmd_simulate(pos[0], n == 3 ? pos[2] : "",
                          args.spec(with_scheduler(1)));
    }
    if (cmd == "stream-simulate" && (n == 2 || n == 3)) {
      auto base = with_scheduler(1).streaming_memory();
      if (n == 3) {
        base.with_lookahead(std::size_t(parse_int(pos[2], "lookahead", 1)));
      }
      return cmd_stream_simulate(pos[0], args.spec(base));
    }
    if (cmd == "snapshot" && n == 4) {
      const auto at_time = parse_int(pos[2], "time (sim-seconds)", 0);
      return cmd_snapshot(pos[0], at_time, pos[3],
                          args.spec(with_scheduler(1)));
    }
    if (cmd == "resume" && n == 1) {
      const auto golden = args.take("golden");
      args.done();
      return cmd_resume(pos[0], golden.value_or(""));
    }
    if (cmd == "whatif" && n == 3) {
      const auto procs = parse_int(pos[1], "procs", 1);
      const auto estimate = parse_int(pos[2], "estimate", 1, sim::kMaxTime);
      // Negative offsets clamp to the snapshot time (whatif.hpp).
      const auto offset =
          args.take_int("offset", kIntMin, sim::kMaxTime).value_or(0);
      const bool simulate = args.take_switch("simulate");
      args.done();
      return cmd_whatif(pos[0], procs, estimate, offset, simulate);
    }
    // The sim-spec is positional, but `serve --resume x.snap` has none:
    // the snapshot carries the full engine configuration.
    if (cmd == "serve" && n <= 1) return cmd_serve(n ? pos[0] : "", args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "campaign") return cmd_campaign(args);
    // The remaining subcommands take positionals only.
    args.done();
    if (cmd == "validate" && n == 1) return cmd_validate(pos[0]);
    if (cmd == "fuzz" && n >= 1 && n <= 3 && pos[0] == "parse") {
      const auto seed = n > 1 ? parse_int(pos[1], "seed", 0) : 1;
      const auto cases = n > 2 ? parse_int(pos[2], "cases", 1, kIntLimit) : 200;
      return cmd_fuzz_parse(std::uint64_t(seed), int(cases));
    }
    if (cmd == "fuzz" && n <= 3) {
      const auto seed = n > 0 ? parse_int(pos[0], "seed", 0) : 1;
      const auto workloads =
          n > 1 ? parse_int(pos[1], "workloads", 1, kIntLimit) : 3;
      const auto jobs = n > 2 ? parse_int(pos[2], "jobs", 1) : 120;
      return cmd_fuzz(std::uint64_t(seed), int(workloads),
                      std::size_t(jobs));
    }
    if (cmd == "stats" && n == 1) return cmd_stats(pos[0]);
    if (cmd == "anonymize" && n == 2) return cmd_anonymize(pos[0], pos[1]);
    if ((cmd == "generate" || cmd == "generate-stream") && n == 5) {
      // Zero nodes would write a trace validate rejects.
      const auto jobs = parse_int(pos[1], "jobs", 1);
      const auto nodes = parse_int(pos[2], "nodes", 1);
      // A load must be positive; an interarrival of 0 keeps the model's
      // default.
      const bool rate_is_load = cmd == "generate";
      const auto rate = parse_finite(pos[3]);
      if (!rate || *rate < 0 || (rate_is_load && *rate == 0)) {
        throw UsageError(rate_is_load
                             ? "load must be a positive number"
                             : "interarrival must be a number >= 0 (0 keeps "
                               "the model default)");
      }
      if (rate_is_load) {
        return cmd_generate(pos[0], std::size_t(jobs), nodes, *rate, pos[4]);
      }
      return cmd_generate_stream(pos[0], std::uint64_t(jobs), nodes, *rate,
                                 pos[4]);
    }
    if (cmd == "convert-iacct" && n == 3) {
      return cmd_convert(false, pos[0], pos[1], pos[2]);
    }
    if (cmd == "convert-nqs" && n == 3) {
      return cmd_convert(true, pos[0], pos[1], pos[2]);
    }
    if (cmd == "trace-summary" && (n == 1 || n == 2)) {
      const auto top_k = n == 2 ? parse_int(pos[1], "top-k", 1) : 10;
      return cmd_trace_summary(pos[0], std::size_t(top_k));
    }
    if (cmd == "schedulers" && n == 0) {
      std::cout << sched::Registry::global().help();
      return 0;
    }
  } catch (const UsageError& e) {
    std::cerr << "swf_tool " << cmd << ": " << e.what() << "\n";
    return 2;
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
