// TraceReader: the streaming JobSource over SWF text — header capture
// before the first pull, malformed/truncated-line diagnostics, strict
// stops, bounded error storage with exact counts, partial-record
// skipping, refill windows smaller than a line, and agreement with the
// whole-trace reader.
#include "core/swf/reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"

namespace pjsb::swf {
namespace {

std::string record_line(std::int64_t job, std::int64_t submit,
                        std::int64_t runtime = 100,
                        std::int64_t procs = 4) {
  JobRecord r;
  r.job_number = job;
  r.submit_time = submit;
  r.wait_time = 0;
  r.run_time = runtime;
  r.allocated_procs = procs;
  r.requested_procs = procs;
  r.requested_time = runtime;
  r.status = Status::kCompleted;
  return r.to_line();
}

ReaderOptions window(std::size_t bytes) {
  ReaderOptions options;
  options.chunk_bytes = bytes;
  return options;
}

TraceReader reader_of(const std::string& text,
                      const ReaderOptions& options = {}) {
  return TraceReader(std::make_unique<std::istringstream>(text), "test",
                     options);
}

std::vector<JobRecord> drain(TraceReader& reader) {
  std::vector<JobRecord> records;
  while (auto r = reader.next()) records.push_back(*r);
  return records;
}

TEST(TraceReader, ParsesRecordsAndHeader) {
  const std::string text =
      "; Computer: Test Machine\n"
      "; MaxNodes: 64\n"
      "; Note: hello\n"
      "; free-form comment without a label\n"
      "\n" +
      record_line(1, 0) + "\n" + record_line(2, 10) + "\n";
  auto reader = reader_of(text);
  EXPECT_EQ(reader.header().computer, "Test Machine");
  EXPECT_EQ(reader.header().max_nodes, 64);
  ASSERT_EQ(reader.header().notes.size(), 1u);
  ASSERT_EQ(reader.header().extra_comments.size(), 1u);

  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].submit_time, 10);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.records_returned(), 2u);
  EXPECT_EQ(reader.lines_read(), 7u);
}

TEST(TraceReader, HeaderCompleteBeforeFirstNext) {
  // The engine sizes the machine from MaxNodes before pulling any job;
  // the header must be fully parsed at construction.
  const std::string text =
      "; MaxNodes: 512\n; MaxRuntime: 777\n" + record_line(1, 0) + "\n";
  auto reader = reader_of(text);
  EXPECT_EQ(reader.header().max_nodes, 512);
  EXPECT_EQ(reader.header().max_runtime, 777);
}

TEST(TraceReader, HeaderLongerThanOneWindowIsCompleteBeforeFirstNext) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += "; Note: header line " + std::to_string(i) + "\n";
  }
  text += "; MaxNodes: 96\n" + record_line(1, 0) + "\n";
  auto reader = reader_of(text, window(16));
  EXPECT_EQ(reader.header().notes.size(), 40u);
  EXPECT_EQ(reader.header().max_nodes, 96);
  EXPECT_EQ(reader.records_returned(), 0u);
  EXPECT_EQ(drain(reader).size(), 1u);
}

TEST(TraceReader, CommentsAfterRecordsAreNotHeaderDirectives) {
  const std::string text = "; MaxNodes: 64\n" + record_line(1, 0) +
                           "\n; MaxNodes: 9999\n" + record_line(2, 5) + "\n";
  auto reader = reader_of(text);
  const auto records = drain(reader);
  EXPECT_EQ(records.size(), 2u);
  // A late "directive" is preserved as a comment, not absorbed.
  EXPECT_EQ(reader.header().max_nodes, 64);
  ASSERT_EQ(reader.header().extra_comments.size(), 1u);
  EXPECT_EQ(reader.header().extra_comments[0], " MaxNodes: 9999");
}

TEST(TraceReader, MalformedLinesReportLineNumbersAndAreSkipped) {
  const std::string text = "; MaxNodes: 8\n" +          // line 1
                           record_line(1, 0) + "\n" +   // line 2
                           "1 2 3\n" +                  // line 3: too few
                           record_line(2, 5) + "\n" +   // line 4
                           "a b c d e f g h i j k l m n o p q r\n" +  // 5
                           record_line(3, 9) + "\n";    // line 6
  auto reader = reader_of(text);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error_count(), 2u);
  ASSERT_EQ(reader.errors().size(), 2u);
  EXPECT_EQ(reader.errors()[0].line, 3u);
  EXPECT_EQ(reader.errors()[1].line, 5u);
  EXPECT_NE(reader.errors()[0].message.find("18 fields"),
            std::string::npos);
  EXPECT_NE(reader.errors()[1].message.find("not an integer"),
            std::string::npos);
}

TEST(TraceReader, StatusOutOfRangeIsMalformed) {
  auto reader =
      reader_of("1 0 0 100 4 -1 -1 4 100 -1 7 -1 -1 -1 -1 -1 -1 -1\n");
  EXPECT_EQ(drain(reader).size(), 0u);
  EXPECT_EQ(reader.error_count(), 1u);
}

TEST(TraceReader, StrictModeStopsAtFirstError) {
  const std::string text = record_line(1, 0) + "\nbad line\n" +
                           record_line(2, 5) + "\n";
  for (const std::size_t bytes : {std::size_t(0), std::size_t(7)}) {
    ReaderOptions options = window(bytes);
    options.strict = true;
    auto reader = reader_of(text, options);
    const auto records = drain(reader);
    ASSERT_EQ(records.size(), 1u) << "window " << bytes;
    EXPECT_EQ(reader.error_count(), 1u);
    EXPECT_EQ(reader.errors()[0].line, 2u);
    EXPECT_EQ(reader.lines_read(), 2u);
  }
}

TEST(TraceReader, ExtraFieldsTolerantMode) {
  const std::string text = record_line(1, 0) + " 42 43\n";
  auto strict_reader = reader_of(text);
  EXPECT_EQ(drain(strict_reader).size(), 0u);
  EXPECT_EQ(strict_reader.error_count(), 1u);

  ReaderOptions options;
  options.allow_extra_fields = true;
  auto tolerant = reader_of(text, options);
  EXPECT_EQ(drain(tolerant).size(), 1u);
  EXPECT_TRUE(tolerant.ok());
}

TEST(TraceReader, TruncatedFinalLineStillParses) {
  // No trailing newline: the final record must not be lost.
  const std::string text = record_line(1, 0) + "\n" + record_line(2, 7);
  auto reader = reader_of(text, window(16));
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].submit_time, 7);
  EXPECT_TRUE(reader.ok());
}

TEST(TraceReader, TruncatedMidRecordFinalLineIsAnError) {
  // A record chopped mid-line (e.g. an interrupted download).
  const std::string full = record_line(2, 7);
  const std::string text =
      record_line(1, 0) + "\n" + full.substr(0, full.size() / 2);
  auto reader = reader_of(text);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
}

TEST(TraceReader, MalformedUnterminatedFinalLineVariants) {
  // The truncated final line (no trailing newline) goes through the
  // same malformed-line accounting as any interior line, whatever the
  // kind of damage.
  struct Case {
    const char* name;
    std::string last_line;
  };
  const std::vector<Case> cases = {
      {"non-numeric garbage", "this is not a record"},
      {"too few fields", "3 20 -1 5"},
      {"too many fields", record_line(3, 20) + " 99"},
      {"status out of range", [] {
         auto line = record_line(3, 20);
         // Field 11 (status) is the 11th token; rewrite it to 9.
         std::istringstream in(line);
         std::string token, rebuilt;
         for (int i = 1; in >> token; ++i) {
           if (i == 11) token = "9";
           rebuilt += (i == 1 ? "" : " ") + token;
         }
         return rebuilt;
       }()},
  };
  for (const auto& c : cases) {
    const std::string text =
        record_line(1, 0) + "\n" + record_line(2, 7) + "\n" + c.last_line;
    auto reader = reader_of(text);
    const auto records = drain(reader);
    EXPECT_EQ(records.size(), 2u) << c.name;
    EXPECT_EQ(reader.error_count(), 1u) << c.name;
    ASSERT_EQ(reader.errors().size(), 1u) << c.name;
    EXPECT_EQ(reader.errors()[0].line, 3u) << c.name;
  }
}

TEST(TraceReader, MalformedFinalLineStrictModeStillReportsIt) {
  const std::string text = record_line(1, 0) + "\n" + "garbage final";
  ReaderOptions options;
  options.strict = true;
  auto reader = reader_of(text, options);
  const auto records = drain(reader);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
  EXPECT_FALSE(reader.ok());
}

TEST(TraceReader, LinesLongerThanTheWindowGrowIt) {
  // An 8-byte window is shorter than every line here, so each line is
  // assembled over several refills, the unterminated malformed tail
  // included.
  const std::string huge(3000, '9');
  const std::string text = record_line(1, 0) + "\n" + huge + "\n" +
                           record_line(2, 5) + "\n" +
                           "trailing garbage that is quite long indeed";
  auto reader = reader_of(text, window(8));
  EXPECT_EQ(drain(reader).size(), 2u);
  EXPECT_EQ(reader.error_count(), 2u);
  ASSERT_EQ(reader.errors().size(), 2u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
  EXPECT_EQ(reader.errors()[1].line, 4u);
  EXPECT_EQ(reader.lines_read(), 4u);
}

TEST(TraceReader, CrlfFinalLineWithoutNewlineParses) {
  // Windows line endings with a bare-CR tail: the final record keeps
  // its trailing \r and must still parse (the record grammar tolerates
  // trailing whitespace).
  const std::string text =
      record_line(1, 0) + "\r\n" + record_line(2, 7) + "\r";
  auto reader = reader_of(text);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].submit_time, 7);
  EXPECT_TRUE(reader.ok());
}

TEST(TraceReader, PartialExecutionLinesAreSkippedWithCounter) {
  JobRecord partial;
  partial.job_number = 1;
  partial.submit_time = 0;
  partial.run_time = 5;
  partial.allocated_procs = 1;
  partial.requested_procs = 1;
  partial.status = Status::kPartial;
  const std::string text =
      record_line(1, 0) + "\n" + partial.to_line() + "\n" +
      record_line(2, 5) + "\n";
  auto reader = reader_of(text);
  EXPECT_EQ(drain(reader).size(), 2u);
  EXPECT_EQ(reader.partials_skipped(), 1u);
  EXPECT_TRUE(reader.ok());
}

TEST(TraceReader, EmptyAndHeaderOnlyInputs) {
  auto empty = reader_of("");
  EXPECT_FALSE(empty.next().has_value());
  EXPECT_TRUE(empty.ok());
  EXPECT_EQ(empty.lines_read(), 0u);

  auto header_only = reader_of("; MaxNodes: 4\n; Note: n\n");
  EXPECT_FALSE(header_only.next().has_value());
  EXPECT_EQ(header_only.header().max_nodes, 4);
  EXPECT_TRUE(header_only.ok());
}

TEST(TraceReader, MissingFileReportsOpenFailure) {
  TraceReader reader("/nonexistent/path/to/trace.swf");
  EXPECT_TRUE(reader.open_failed());
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  ASSERT_EQ(reader.errors().size(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 0u);
  EXPECT_EQ(reader.errors()[0].message,
            "cannot open file: /nonexistent/path/to/trace.swf");

  TraceReader null_stream(nullptr, "null");
  EXPECT_TRUE(null_stream.open_failed());
  EXPECT_FALSE(null_stream.next().has_value());
}

TEST(TraceReader, ErrorStorageIsBoundedButCountExact) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "broken\n";
  auto reader = reader_of(text, window(64));
  drain(reader);
  ASSERT_EQ(reader.errors().size(), kMaxStoredErrors);
  EXPECT_EQ(reader.error_count(), 200u);
  // The stored ones are the first, in line order.
  for (std::size_t i = 0; i < kMaxStoredErrors; ++i) {
    EXPECT_EQ(reader.errors()[i].line, i + 1);
  }
}

std::string model_trace_text(std::size_t jobs) {
  util::Rng rng(99);
  workload::ModelConfig config;
  config.jobs = jobs;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, config, rng);
  return write_swf_string(trace);
}

TEST(TraceReader, MatchesWholeTraceReadOnModelTrace) {
  const auto text = model_trace_text(500);
  const auto expected = read_swf_string(text);
  ASSERT_TRUE(expected.ok());

  auto reader = reader_of(text, window(97));  // tiny and unaligned
  EXPECT_EQ(drain(reader), expected.trace.records);
  EXPECT_EQ(reader.header(), expected.trace.header);
}

TEST(TraceReader, ReadsFromPath) {
  const auto text = model_trace_text(300);
  const std::string path = ::testing::TempDir() + "/trace_reader_path.swf";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.label(), "trace:" + path);
  EXPECT_EQ(drain(reader), read_swf_file(path).trace.records);
  EXPECT_TRUE(reader.ok());
  std::remove(path.c_str());
}

TEST(TraceSource, YieldsOnlySummaryRecordsInOrder) {
  Trace trace;
  JobRecord a;
  a.job_number = 1;
  a.submit_time = 0;
  a.status = Status::kCompleted;
  JobRecord partial = a;
  partial.job_number = 1;
  partial.status = Status::kPartial;
  JobRecord b = a;
  b.job_number = 2;
  b.submit_time = 10;
  trace.records = {a, partial, b};

  TraceSource source(trace);
  const auto first = source.next();
  const auto second = source.next();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->job_number, 1);
  EXPECT_EQ(second->job_number, 2);
  EXPECT_FALSE(source.next().has_value());

  source.reset();
  EXPECT_TRUE(source.next().has_value());
}

}  // namespace
}  // namespace pjsb::swf
