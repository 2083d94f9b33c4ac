// Chunk-boundary properties: split_line_chunks invariants, and the
// reader's output must not depend on where its pieces end — every
// chunk size (whole-trace loads) and every window size (TraceReader)
// from 1 byte up, at several thread counts, over adversarial content
// (CRLF pairs, comments, malformed fields, truncated tails) yields the
// reference reader's records, errors and line numbers.
#include "core/swf/reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/swf/writer.hpp"
#include "util/chunk.hpp"
#include "util/rng.hpp"
#include "validate/fuzzer.hpp"
#include "workload/model.hpp"

namespace pjsb::swf {
namespace {

TEST(SplitLineChunks, Invariants) {
  const std::string texts[] = {
      "",
      "\n",
      "no newline at all",
      "a\nb\nc\n",
      "a\nb\nc",  // truncated tail
      std::string(100, 'x') + "\n" + std::string(5, 'y'),
      "\n\n\n\n",
  };
  for (const auto& text : texts) {
    for (std::size_t target = 1; target <= text.size() + 2; ++target) {
      const auto chunks = util::split_line_chunks(text, target);
      // Concatenation reproduces the input exactly.
      std::string joined;
      for (const auto c : chunks) joined.append(c);
      ASSERT_EQ(joined, text) << "target=" << target;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        // No empty pieces, and every boundary is newline-aligned: each
        // chunk but the last ends exactly at a '\n'.
        ASSERT_FALSE(chunks[i].empty()) << "target=" << target;
        if (i + 1 < chunks.size()) {
          ASSERT_EQ(chunks[i].back(), '\n') << "target=" << target;
        }
      }
      if (text.empty()) {
        ASSERT_TRUE(chunks.empty());
      }
    }
  }
}

TEST(SplitLineChunks, MaxChunksCap) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "line " + std::to_string(i) + "\n";
  for (std::size_t cap = 1; cap <= 8; ++cap) {
    const auto chunks = util::split_line_chunks(text, 10, cap);
    ASSERT_LE(chunks.size(), cap);
    std::string joined;
    for (const auto c : chunks) joined.append(c);
    ASSERT_EQ(joined, text);
  }
}

/// Adversarial input: header block, CRLF endings, interleaved
/// comments and blanks, malformed fields of every flavor, partial
/// (status 2-4) records and a truncated final line.
std::string adversarial_text() {
  workload::ModelConfig config;
  config.jobs = 40;
  config.machine_nodes = 32;
  util::Rng rng(12345);
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, config, rng);
  std::string text = write_swf_string(trace);
  // CRLF a third of the endings.
  std::string crlf;
  int n = 0;
  for (char c : text) {
    if (c == '\n' && (++n % 3 == 0)) crlf += '\r';
    crlf += c;
  }
  text = std::move(crlf);
  text += ";interleaved comment\n";
  text += "\n   \t \n";
  text += "1 2 3\n";                               // too few fields
  text += "1 2 3 4 5 6 7 8 9 x 1 2 3 4 5 6 7 8\n"; // non-integer field
  text += "1 2 3 4 5 6 7 8 9 10 99 12 13 14 15 16 17 18\n";  // bad status
  JobRecord partial;
  partial.job_number = 777;
  partial.status = Status::kPartial;
  text += partial.to_line() + "\n";
  text += ";trailing comment\n";
  text += trace.records.front().to_line();  // truncated: no newline
  return text;
}

/// Read `text` in pieces of `bytes` — whole-trace chunks at each of
/// `threads`, and TraceReader windows — against the reference reader.
void expect_piece_invariant(const std::string& text, std::size_t bytes,
                            std::vector<int> threads, bool strict = false) {
  validate::ParseCheck check;
  check.strict = strict;
  check.chunk_bytes = bytes;
  check.window_bytes = bytes;
  check.threads = std::move(threads);
  ASSERT_EQ(validate::check_parse(text, check), "")
      << "pieces of " << bytes << " bytes" << (strict ? ", strict" : "");
}

TEST(ReaderChunks, OutputInvariantToChunkAndWindowSize) {
  const auto text = adversarial_text();
  // Every size from 1 byte up walks the boundary through every offset
  // of every line; then a spread of larger sizes.
  for (std::size_t bytes = 1; bytes <= 300; ++bytes) {
    expect_piece_invariant(text, bytes, {bytes % 3 == 0 ? 4 : 1});
  }
  for (const std::size_t bytes : {512u, 1024u, 2048u, 4096u}) {
    expect_piece_invariant(text, bytes, {8});
  }
}

TEST(ReaderChunks, OutputInvariantToThreadCount) {
  const auto text = adversarial_text();
  // 37 is prime: boundaries land mid-line everywhere.
  for (const std::size_t bytes : {0u, 37u}) {
    expect_piece_invariant(text, bytes, {1, 2, 3, 4, 8, 16});
  }
}

TEST(ReaderChunks, StrictStopsAtSameLineForEveryChunking) {
  const auto text = adversarial_text();
  ReaderOptions strict;
  strict.strict = true;
  const auto want = read_swf_string(text, strict);
  ASSERT_FALSE(want.ok());
  ASSERT_EQ(want.errors.size(), 1u);
  for (std::size_t bytes = 1; bytes <= 200; bytes += 7) {
    expect_piece_invariant(text, bytes, {1, 2, 8}, /*strict=*/true);
  }
}

TEST(ReaderChunks, CrlfOnlyAtBoundaries) {
  // A pathological file whose every line ends \r\n: a 1-byte sweep
  // puts the split between '\r' and '\n' repeatedly.
  std::string text = ";H: v\r\n\r\n";
  JobRecord r;
  r.job_number = 1;
  r.status = Status::kCompleted;
  text += r.to_line() + "\r\n";
  text += "bad\r\n";
  text += r.to_line() + "\r";  // trailing bare CR folds into the token
  for (std::size_t bytes = 0; bytes <= text.size(); ++bytes) {
    expect_piece_invariant(text, bytes, {2});
  }
}

}  // namespace
}  // namespace pjsb::swf
