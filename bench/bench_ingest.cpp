// GB/s SWF ingest.
//
// Measures the reader against the reference implementation on one
// generated on-disk trace (row names are the ones bench/gate.json gates):
//   * legacy parse: validate::reference_read_swf, a getline loop over
//     an ifstream;
//   * fast parse: swf::read_swf_file (mmap'd, chunk-parallel) at 1/2/8
//     threads, with records/header/errors compared against the
//     reference result (the records_identical bit gates in CI — a
//     reader that disagrees with the oracle scores zero);
//   * stream drain: swf::TraceReader, the same scanner over a refill
//     window, drained record by record in bounded memory;
//   * write: the buffered to_chars emitter vs the ostream formatting
//     the writer used before (reproduced here as the baseline).
//
// The gated metrics are the records_identical bits at every thread
// count (== 1) and the two same-process ratios,
// fast_parse.speedup_vs_legacy (>= 5x) and write.speedup_vs_legacy
// (>= 1x); the MB/s rates are printed, not gated. Default sizes: 1M
// jobs (--quick: 60k).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "validate/reference_reader.hpp"
#include "workload/stream.hpp"

namespace {

using namespace pjsb;

constexpr int kThreadCounts[] = {1, 2, 8};

int fail(const std::string& message) {
  std::cerr << "bench_ingest: " << message << '\n';
  return 1;
}

/// The ostream-based record formatting write_swf used before the
/// buffered emitter, kept verbatim as the write baseline.
void legacy_write(std::ostream& out, const swf::Trace& trace) {
  const auto& h = trace.header;
  for (const auto& line : h.to_comment_lines()) out << line << '\n';
  for (const auto& r : trace.records) out << r.to_line() << '\n';
}

bool same_parse(const swf::ReadResult& a, const swf::ReadResult& b) {
  return a.trace.records == b.trace.records &&
         a.trace.header == b.trace.header && a.errors == b.errors;
}

double mb_per_s(std::uintmax_t bytes, double seconds) {
  return seconds > 0 ? double(bytes) / 1e6 / seconds : 0.0;
}

/// Times `reps` runs of `fn` and returns the fastest. The shared box
/// this runs on jitters +-15% run to run; min-of-N is the standard
/// noise-free estimator, applied symmetrically to every path measured
/// here so no side gains an advantage.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    bench::WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t jobs = options.quick ? 60'000 : 1'000'000;
  const int reps = options.quick ? 5 : 3;

  bench::print_header(
      "GB/s SWF ingest",
      "The mmap'd chunk-parallel reader sustains >= 5x the reference parse "
      "rate while staying byte-identical on records, header and errors.");

  // One on-disk trace, streamed to /tmp in constant memory.
  const std::string dir =
      "/tmp/bench_ingest." + std::to_string(std::uint64_t(getpid()));
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
    return fail("cannot create " + dir);
  }
  const std::string path = dir + "/trace.swf";
  {
    workload::GeneratorSpec gen;
    gen.kind = workload::ModelKind::kLublin99;
    gen.config.machine_nodes = 256;
    gen.config.mean_interarrival = 1300.0;
    gen.seed = bench::kSeed;
    gen.max_jobs = jobs;
    workload::ModelJobSource source(gen);
    std::ofstream out(path);
    if (!out) return fail("cannot write " + path);
    if (swf::write_swf_stream(out, source) != jobs) {
      return fail("short generate");
    }
  }
  std::uintmax_t bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    bytes = std::uintmax_t(in.tellg());
  }
  std::cout << "trace: " << jobs << " jobs, " << double(bytes) / 1e6
            << " MB\n\n";

  bench::JsonReporter json("bench_ingest");
  util::Table table({"path", "MB/s", "speedup", "identical"});

  // Reference parse baseline.
  swf::ReadResult legacy;
  const double legacy_s = best_seconds(reps, [&] {
    std::ifstream in(path);
    legacy = validate::reference_read_swf(in);
  });
  if (!legacy.ok()) return fail("reference parse reported errors");
  const double legacy_rate = mb_per_s(bytes, legacy_s);
  json.add("legacy_parse", "mb_per_s", legacy_rate, "MB/s");
  table.row().cell("reference_read_swf").cell(legacy_rate, 1).cell("-").cell(
      "-");

  // Whole-trace parse at each thread count; identical means identical
  // at EVERY thread count, not just the fastest.
  double best_rate = 0.0;
  bool all_identical = true;
  for (const int threads : kThreadCounts) {
    swf::ReaderOptions reader_options;
    reader_options.threads = threads;
    swf::ReadResult fast;
    const double seconds = best_seconds(
        reps, [&] { fast = swf::read_swf_file(path, reader_options); });
    const bool identical = same_parse(fast, legacy);
    all_identical = all_identical && identical;
    const double rate = mb_per_s(bytes, seconds);
    best_rate = std::max(best_rate, rate);
    const std::string name = "fast_parse_t" + std::to_string(threads);
    json.add(name, "mb_per_s", rate, "MB/s");
    json.add(name, "records_identical", identical ? 1.0 : 0.0, "bool");
    table.row()
        .cell("read_swf_file threads=" + std::to_string(threads))
        .cell(rate, 1)
        .cell(rate / legacy_rate, 2)
        .cell(identical ? "yes" : "NO");
  }
  json.add("fast_parse", "mb_per_s", best_rate, "MB/s");
  json.add("fast_parse", "speedup_vs_legacy", best_rate / legacy_rate,
           "ratio");
  json.add("fast_parse", "records_identical", all_identical ? 1.0 : 0.0,
           "bool");

  // TraceReader drain: the bounded-memory path on the same scanner.
  {
    std::size_t records = 0;
    bool stream_errors = false;
    const double seconds = best_seconds(reps, [&] {
      swf::TraceReader reader(path);
      records = 0;
      while (reader.next()) ++records;
      stream_errors = stream_errors || reader.error_count() > 0;
    });
    if (stream_errors) return fail("stream parse errors");
    const double rate = mb_per_s(bytes, seconds);
    json.add("stream_drain", "mb_per_s", rate, "MB/s");
    json.add("stream_drain", "records_per_s", double(records) / seconds,
             "records/s");
    table.row()
        .cell("TraceReader drain")
        .cell(rate, 1)
        .cell(rate / legacy_rate, 2)
        .cell("-");
  }

  // Write: buffered to_chars emitter vs the old ostream formatting.
  {
    std::string rendered;
    std::string old_rendered;
    const auto [fast_s, old_s] = bench::fastest_alternating(
        reps, [&] { rendered = swf::write_swf_string(legacy.trace); },
        [&] {
          std::ostringstream out;
          legacy_write(out, legacy.trace);
          old_rendered = out.str();
        });
    if (rendered != old_rendered) return fail("writer output changed");

    const double fast_rate = mb_per_s(rendered.size(), fast_s);
    const double old_rate = mb_per_s(old_rendered.size(), old_s);
    json.add("write", "mb_per_s", fast_rate, "MB/s");
    json.add("legacy_write", "mb_per_s", old_rate, "MB/s");
    json.add("write", "speedup_vs_legacy", fast_rate / old_rate, "ratio");
    table.row()
        .cell("write (buffered)")
        .cell(fast_rate, 1)
        .cell(fast_rate / old_rate, 2)
        .cell(rendered == old_rendered ? "yes" : "NO");
  }

  std::cout << table.to_string() << '\n'
            << "read_swf_file best: " << best_rate << " MB/s ("
            << best_rate / legacy_rate << "x reference), records identical: "
            << (all_identical ? "yes" : "NO") << '\n';
  json.add_table("ingest", table);
  if (!json.write(options.json_path)) return 1;

  if (std::system(("rm -rf " + dir).c_str()) != 0) {
    std::cerr << "bench_ingest: could not remove " << dir << '\n';
  }
  return all_identical ? 0 : 1;
}
