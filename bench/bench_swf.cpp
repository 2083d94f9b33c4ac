// E1/PR3 — SWF substrate + streaming ingestion.
//
// The streaming scale demonstration: a synthetic trace is streamed to
// disk (constant memory), replayed through swf::TraceReader + the
// bounded-memory engine path at half and full length, and replayed
// once more through the materialize-everything path. Each replay runs
// in a child process so its peak RSS (wait4 ru_maxrss) is measured in
// isolation; the streaming peaks at half vs full length demonstrate
// O(running+queued+lookahead) memory, and the decision CSVs
// (completion order) are compared byte-for-byte against the in-memory
// run. Parse and write rates are bench_ingest's, timed against their
// references in one process.
//
// Default sizes: 1M jobs (--quick: 50k). The CI bench gate
// (bench/gate.json) holds the identity bit, the peak RSS ceilings and
// the flatness ratio.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "common.hpp"
#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "util/resource.hpp"
#include "workload/stream.hpp"

namespace {

using namespace pjsb;

constexpr std::int64_t kNodes = 256;
/// Mean interarrival chosen to put the Lublin '99 stream at ~0.7
/// offered load on 256 nodes (measured via swf_tool stats), so queues
/// stay bounded — the flat-RSS claim is about a system keeping up, not
/// an ever-growing backlog — while backfilling still works hard.
constexpr double kInterarrival = 1300.0;
constexpr const char* kScheduler = "easy";

workload::GeneratorSpec generator_spec(std::uint64_t max_jobs) {
  workload::GeneratorSpec spec;
  spec.kind = workload::ModelKind::kLublin99;
  spec.config.machine_nodes = kNodes;
  spec.config.mean_interarrival = kInterarrival;
  spec.seed = bench::kSeed;
  spec.max_jobs = max_jobs;
  return spec;
}


/// Write `key value` lines for the parent to pick up.
void write_report(const std::string& path,
                  const std::map<std::string, double>& values) {
  std::ofstream out(path);
  for (const auto& [key, value] : values) out << key << ' ' << value << '\n';
}

int fail(const std::string& message) {
  std::cerr << "bench_swf: " << message << '\n';
  return 1;
}

// ---- child phases --------------------------------------------------

int phase_generate(const std::string& trace_path, std::uint64_t jobs) {
  workload::ModelJobSource source(generator_spec(jobs));
  std::ofstream out(trace_path);
  if (!out) return fail("cannot write " + trace_path);
  bench::WallTimer timer;
  const auto written = swf::write_swf_stream(out, source);
  out.close();
  if (written != jobs) return fail("short generate");
  std::cerr << "  generated " << written << " jobs in " << timer.seconds()
            << "s, peak rss " << util::peak_rss_mb() << " MB\n";
  return 0;
}

/// Completion-order decision dump: the regression artifact both replay
int phase_stream_replay(const std::string& trace_path,
                        const std::string& csv_path,
                        const std::string& report_path,
                        std::uint64_t max_jobs) {
  std::ofstream csv(csv_path);
  if (!csv) return fail("cannot write " + csv_path);

  swf::TraceReader source(trace_path);
  if (source.open_failed()) return fail("cannot open " + trace_path);

  // Both replay paths dump completions through the same streaming CSV
  // observer, so "same bytes" means "same scheduler decisions in the
  // same order".
  sim::CompletionCsvObserver observer(csv);
  const auto spec = sim::SimulationSpec{}
                        .with_scheduler(kScheduler)
                        .with_lookahead(4096)
                        .with_max_jobs(max_jobs)
                        .streaming_memory();

  bench::WallTimer timer;
  const auto result =
      sim::replay(source, spec, sim::ReplayHooks{}.observe(observer));
  const double wall = timer.seconds();
  if (source.error_count() > 0) return fail("parse errors in trace");

  write_report(report_path,
               {{"jobs", double(result.stats.jobs_completed)},
                {"pulled", double(result.source_pulled)},
                {"wall", wall},
                {"events", double(result.stats.events_processed)},
                {"utilization", result.stats.utilization()}});
  return 0;
}

int phase_inmem_replay(const std::string& trace_path,
                       const std::string& csv_path,
                       const std::string& report_path) {
  std::ofstream csv(csv_path);
  if (!csv) return fail("cannot write " + csv_path);

  auto read = swf::read_swf_file(trace_path);
  if (!read.ok()) return fail("parse errors in trace");

  sim::CompletionCsvObserver observer(csv);
  bench::WallTimer timer;
  const auto result =
      sim::replay(read.trace, sim::SimulationSpec{}.with_scheduler(kScheduler),
                  sim::ReplayHooks{}.observe(observer));
  const double wall = timer.seconds();

  write_report(report_path, {{"jobs", double(result.stats.jobs_completed)},
                             {"wall", wall},
                             {"events", double(result.stats.events_processed)}});
  return 0;
}

// ---- parent orchestration ------------------------------------------

struct PhaseOutcome {
  bool ok = false;
  double peak_rss_mb = 0.0;
  std::map<std::string, double> report;
};

/// Run this binary again with `args`, wait, and collect the child's
/// peak RSS from wait4 plus its key=value report file (if any).
PhaseOutcome run_phase(const std::string& self,
                       const std::vector<std::string>& args,
                       const std::string& report_path) {
  PhaseOutcome outcome;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(self.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return outcome;
  if (pid == 0) {
    execv(self.c_str(), argv.data());
    std::perror("bench_swf: execv");
    _exit(127);
  }
  int status = 0;
  struct rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return outcome;
  outcome.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  outcome.peak_rss_mb = double(usage.ru_maxrss) / 1024.0;
  if (!report_path.empty()) {
    std::ifstream in(report_path);
    std::string key;
    double value = 0.0;
    while (in >> key >> value) outcome.report[key] = value;
  }
  return outcome;
}

bool files_identical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  constexpr std::size_t kBlock = 1 << 20;
  std::string ba(kBlock, '\0'), bb(kBlock, '\0');
  for (;;) {
    fa.read(ba.data(), std::streamsize(kBlock));
    fb.read(bb.data(), std::streamsize(kBlock));
    if (fa.gcount() != fb.gcount()) return false;
    if (fa.gcount() == 0) return fa.eof() && fb.eof();
    if (std::memcmp(ba.data(), bb.data(), std::size_t(fa.gcount())) != 0) {
      return false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden child-phase dispatch (run_phase re-runs this binary with
  // these flags), ahead of the public flags' parse.
  std::map<std::string, std::string> phase_args;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--phase" || arg == "--trace" || arg == "--csv" ||
        arg == "--report" || arg == "--jobs") {
      phase_args[arg] = argv[i + 1];
    }
  }
  if (const auto it = phase_args.find("--phase"); it != phase_args.end()) {
    const std::string& phase = it->second;
    const std::uint64_t jobs =
        std::uint64_t(std::atoll(phase_args["--jobs"].c_str()));
    if (phase == "generate") {
      return phase_generate(phase_args["--trace"], jobs);
    }
    if (phase == "stream-replay") {
      return phase_stream_replay(phase_args["--trace"], phase_args["--csv"],
                                 phase_args["--report"], jobs);
    }
    if (phase == "inmem-replay") {
      return phase_inmem_replay(phase_args["--trace"], phase_args["--csv"],
                                phase_args["--report"]);
    }
    return fail("unknown phase " + phase);
  }
  const auto options = bench::BenchOptions::parse(argc, argv);

  const std::uint64_t jobs = options.quick ? 50'000 : 1'000'000;
  bench::print_header(
      "E1+PR3: SWF substrate + streaming ingestion",
      "Streaming replay holds peak RSS flat while trace length doubles; "
      "decisions are byte-identical to the materialized path.");

  bench::JsonReporter json("bench_swf");

  // Scratch space for the trace + artifacts.
  const std::string dir =
      "/tmp/bench_swf." + std::to_string(std::uint64_t(getpid()));
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
    return fail("cannot create " + dir);
  }
  const std::string self = "/proc/self/exe";
  const std::string trace = dir + "/trace.swf";
  const std::string report = dir + "/report.txt";

  const auto gen = run_phase(
      self,
      {"--phase", "generate", "--trace", trace, "--jobs",
       std::to_string(jobs)},
      "");
  if (!gen.ok) return fail("generate phase failed");

  const auto half = run_phase(
      self,
      {"--phase", "stream-replay", "--trace", trace, "--csv",
       dir + "/half.csv", "--report", report, "--jobs",
       std::to_string(jobs / 2)},
      report);
  if (!half.ok) return fail("stream-replay (half) phase failed");

  const auto full = run_phase(self,
                              {"--phase", "stream-replay", "--trace", trace,
                               "--csv", dir + "/stream.csv", "--report",
                               report, "--jobs", "0"},
                              report);
  if (!full.ok) return fail("stream-replay (full) phase failed");

  const auto inmem = run_phase(self,
                               {"--phase", "inmem-replay", "--trace", trace,
                                "--csv", dir + "/inmem.csv", "--report",
                                report},
                               report);
  if (!inmem.ok) return fail("inmem-replay phase failed");

  const bool identical =
      files_identical(dir + "/stream.csv", dir + "/inmem.csv");
  const double flatness =
      half.peak_rss_mb > 0 ? full.peak_rss_mb / half.peak_rss_mb : 0.0;

  util::Table table(
      {"phase", "jobs", "wall_s", "jobs/s", "peak rss MB"});
  const auto add_row = [&table](const std::string& name,
                                const PhaseOutcome& outcome) {
    const double w = outcome.report.count("wall") ? outcome.report.at("wall")
                                                  : 0.0;
    const double j = outcome.report.count("jobs") ? outcome.report.at("jobs")
                                                  : 0.0;
    table.row()
        .cell(name)
        .cell(std::int64_t(j))
        .cell(w, 2)
        .cell(w > 0 ? j / w : 0.0, 0)
        .cell(outcome.peak_rss_mb, 1);
  };
  add_row("stream half", half);
  add_row("stream full", full);
  add_row("in-memory full", inmem);
  std::cout << table.to_string() << '\n'
            << "generate peak rss: " << gen.peak_rss_mb << " MB\n"
            << "rss flatness (full/half): " << flatness << '\n'
            << "decision CSVs identical: " << (identical ? "yes" : "NO")
            << '\n';

  json.add("generate", "peak_rss_mb", gen.peak_rss_mb, "MB");
  json.add("stream_replay_half", "peak_rss_mb", half.peak_rss_mb, "MB");
  json.add("stream_replay", "peak_rss_mb", full.peak_rss_mb, "MB");
  json.add("stream_replay", "rss_flatness", flatness, "ratio");
  json.add("stream_replay", "jobs_per_s",
           full.report.count("wall") && full.report.at("wall") > 0
               ? full.report.at("jobs") / full.report.at("wall")
               : 0.0,
           "jobs/s");
  json.add("stream_replay", "csv_identical", identical ? 1.0 : 0.0, "bool");
  json.add("inmem_replay", "peak_rss_mb", inmem.peak_rss_mb, "MB");
  json.add("inmem_replay", "jobs_per_s",
           inmem.report.count("wall") && inmem.report.at("wall") > 0
               ? inmem.report.at("jobs") / inmem.report.at("wall")
               : 0.0,
           "jobs/s");
  json.add_table("streaming", table);
  if (!json.write(options.json_path)) return 1;

  if (std::system(("rm -rf " + dir).c_str()) != 0) {
    std::cerr << "bench_swf: could not remove " << dir << '\n';
  }
  return identical ? 0 : 1;
}
