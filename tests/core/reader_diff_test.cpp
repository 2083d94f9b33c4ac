// Differential conformance: the reader must agree with the reference
// reader (validate::reference_read_swf) on every checked-in trace,
// generated Lublin'99/Jann'97 corpora and their corrupted variants —
// whole-trace loads at 1, 2 and 8 threads (records, header, every error
// line and message) and TraceReader drains (summary records, bounded
// errors, counters), with chunk and window sizes swept for both.
#include "core/swf/reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/swf/writer.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "validate/fuzzer.hpp"
#include "validate/reference_reader.hpp"
#include "workload/model.hpp"

namespace pjsb::swf {
namespace {

/// Chunk and window sizes each document is read at: the defaults, every
/// line split across pieces, and a few in between.
constexpr std::size_t kPieceSizes[] = {0, 1, 7, 64, 4096};

std::string repo_path(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<JobRecord> drain(TraceReader& reader) {
  std::vector<JobRecord> records;
  while (auto r = reader.next()) records.push_back(*r);
  return records;
}

std::vector<JobRecord> summaries(const std::vector<JobRecord>& records) {
  std::vector<JobRecord> out;
  for (const auto& r : records) {
    if (r.is_summary()) out.push_back(r);
  }
  return out;
}

/// The full differential battery over one input text.
void expect_conformant(const std::string& text, const std::string& what,
                       bool strict = false, bool allow_extra = false) {
  for (const std::size_t bytes : kPieceSizes) {
    validate::ParseCheck check;
    check.strict = strict;
    check.allow_extra = allow_extra;
    check.chunk_bytes = bytes;
    check.window_bytes = bytes;
    EXPECT_EQ(validate::check_parse(text, check), "")
        << what << " (pieces of " << bytes << " bytes)";
  }
}

swf::Trace generate(workload::ModelKind kind, std::size_t jobs,
                    std::uint64_t seed) {
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = 64;
  util::Rng rng(seed);
  return workload::generate(kind, config, rng);
}

/// Deterministic corruption: enough damage to hit every diagnostic
/// path, reproducible so a failure names its variant.
std::string corrupt(std::string text, std::uint64_t seed) {
  util::Rng rng(seed);
  const char* const splices[] = {"abc",  "-",  "1e5", "0x10",
                                 "99999999999999999999", "+7", "3.5"};
  for (int i = 0; i < 12 && !text.empty(); ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(rng.uniform_int(0, 255));
        break;
      }
      case 1: {
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, splices[std::size_t(rng.uniform_int(
                             0, std::int64_t(std::size(splices)) - 1))]);
        break;
      }
      case 2: {  // drop a span: mangles field counts across a line
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text.erase(pos, std::size_t(rng.uniform_int(1, 30)));
        break;
      }
      case 3: {  // CRLF some line endings
        const auto nl = text.find('\n', std::size_t(rng.uniform_int(
                                            0, std::int64_t(text.size()))));
        if (nl != std::string::npos) text.insert(nl, 1, '\r');
        break;
      }
    }
  }
  return text;
}

TEST(ReaderDiff, CheckedInTraces) {
  for (const char* name : {"data/tiny.swf", "data/contention.swf",
                           "data/crashy.swf"}) {
    const auto text = slurp(repo_path(name));
    ASSERT_FALSE(text.empty()) << name;
    expect_conformant(text, name);
    expect_conformant(text, name, /*strict=*/true);
    expect_conformant(text, name, /*strict=*/false, /*allow_extra=*/true);
  }
}

TEST(ReaderDiff, GeneratedLublin99Corpus) {
  const auto trace = generate(workload::ModelKind::kLublin99, 400, 99);
  const auto text = write_swf_string(trace);
  expect_conformant(text, "lublin99");
  expect_conformant(text, "lublin99", /*strict=*/true);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_conformant(corrupt(text, seed),
                      "lublin99 corrupted seed=" + std::to_string(seed));
    expect_conformant(corrupt(text, seed),
                      "lublin99 corrupted strict seed=" +
                          std::to_string(seed),
                      /*strict=*/true);
  }
}

TEST(ReaderDiff, GeneratedJann97Corpus) {
  const auto trace = generate(workload::ModelKind::kJann97, 400, 97);
  const auto text = write_swf_string(trace);
  expect_conformant(text, "jann97");
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    expect_conformant(corrupt(text, seed),
                      "jann97 corrupted seed=" + std::to_string(seed));
    expect_conformant(corrupt(text, seed),
                      "jann97 corrupted allow_extra seed=" +
                          std::to_string(seed),
                      /*strict=*/false, /*allow_extra=*/true);
  }
}

TEST(ReaderDiff, EdgeShapes) {
  expect_conformant("", "empty");
  expect_conformant("\n\n\n", "blank lines");
  expect_conformant(";only: comments\n;more\n", "comment-only");
  expect_conformant("garbage\n", "garbage line");
  expect_conformant("1 2 3\n", "short record");
  // Truncated final line (no trailing newline) still parses.
  const auto trace = generate(workload::ModelKind::kLublin99, 5, 3);
  auto text = write_swf_string(trace);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  expect_conformant(text, "truncated tail");
  // Comments and blanks interleaved after the header block.
  expect_conformant(write_swf_string(trace) + ";late comment\n\n" +
                        trace.records.front().to_line() + "\n",
                    "late comment");
  // Partial-execution lines: whole-trace loads keep them, streams skip
  // and count them.
  JobRecord partial = trace.records.front();
  partial.status = Status::kPartial;
  expect_conformant(write_swf_string(trace) + partial.to_line() + "\n",
                    "partial record");
}

TEST(ReaderDiff, FileBackedPathsMatchReference) {
  const auto trace = generate(workload::ModelKind::kLublin99, 200, 7);
  const std::string path = ::testing::TempDir() + "/reader_diff_file.swf";
  ASSERT_TRUE(write_swf_file(path, trace));

  std::ifstream in(path, std::ios::binary);
  const auto reference = validate::reference_read_swf(in);
  ASSERT_TRUE(reference.ok());
  for (const int threads : {1, 2, 8}) {
    ReaderOptions options;
    options.threads = threads;
    const auto whole = read_swf_file(path, options);
    EXPECT_EQ(whole.trace.records, reference.trace.records);
    EXPECT_EQ(whole.trace.header, reference.trace.header);
    EXPECT_TRUE(whole.ok());
  }
  TraceReader reader(path);
  EXPECT_EQ(drain(reader), summaries(reference.trace.records));
  EXPECT_EQ(reader.header(), reference.trace.header);
  const auto text = slurp(path);
  EXPECT_EQ(reader.lines_read(),
            std::size_t(std::count(text.begin(), text.end(), '\n')));
  std::remove(path.c_str());
}

TEST(ReaderDiff, SimEntryPointsAgree) {
  // sim::load_trace and sim::open_trace_source are the replay paths'
  // only ways in; they must see the same workload.
  const auto trace = generate(workload::ModelKind::kJann97, 50, 11);
  const std::string path = ::testing::TempDir() + "/reader_diff_sim.swf";
  ASSERT_TRUE(write_swf_file(path, trace));
  for (const int threads : {1, 8}) {
    const auto spec = sim::SimulationSpec{}.with_parser("fast", threads);
    const auto loaded = sim::load_trace(path, spec);
    const auto source = sim::open_trace_source(path, spec);
    EXPECT_EQ(drain(*source), summaries(loaded.trace.records));
    EXPECT_EQ(source->header(), loaded.trace.header);
  }
  std::remove(path.c_str());
}

TEST(ReaderDiff, MissingFileIsOneLineZeroError) {
  const std::string path = "/nonexistent/definitely_missing.swf";
  TraceReader reader(path);
  EXPECT_TRUE(reader.open_failed());
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.next(), std::nullopt);
  const auto whole = read_swf_file(path);
  ASSERT_EQ(whole.errors.size(), 1u);
  EXPECT_EQ(reader.errors(), whole.errors);
  EXPECT_EQ(whole.errors.front().line, 0u);
}

TEST(ReaderDiff, BoundedErrorStorage) {
  // 200 malformed lines: streamed storage stays at the bound, the count
  // exact; a whole-trace load keeps them all.
  std::string text;
  for (int i = 0; i < 200; ++i) text += "bad line " + std::to_string(i) + "\n";
  expect_conformant(text, "200 bad lines");

  auto reader = TraceReader(std::make_unique<std::istringstream>(text),
                            "bound");
  drain(reader);
  EXPECT_EQ(reader.errors().size(), kMaxStoredErrors);
  EXPECT_EQ(reader.error_count(), 200u);
  EXPECT_EQ(read_swf_string(text).errors.size(), 200u);
}

}  // namespace
}  // namespace pjsb::swf
