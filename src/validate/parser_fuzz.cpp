// Differential parser fuzzer: the reference reader is the oracle, and
// the reader must agree byte-for-byte on records, header fields,
// verdicts and diagnostics — for every mutation, thread count, chunk
// size and streaming window.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "validate/fuzzer.hpp"
#include "validate/reference_reader.hpp"

namespace pjsb::validate {

namespace {

/// Junk spliced into record lines: non-integers, overflow shapes,
/// signs, floats, NUL and UTF-8 bytes — each must produce the same
/// verdict from both readers.
const char* const kSpliceTokens[] = {
    "-",       "--3",       "abc",  "1e5",
    "0x10",    "99999999999999999999",
    "+7",      "3.5",       "\xc3\xa9junk",
    "nan",     "9223372036854775807", "-9223372036854775808",
    "9223372036854775808",  // one past int64 max: overflow reject
};

std::string huge_token(util::Rng& rng) {
  std::string t(std::size_t(rng.uniform_int(64, 2048)), '9');
  if (rng.bernoulli(0.3)) t.insert(t.begin(), '-');
  return t;
}

/// One seeded base input: usually a generated workload rendered to SWF
/// text, sometimes the degenerate shapes (empty, comment-only,
/// header-only, garbage-only) that exercise the header/EOF paths.
std::string base_input(util::Rng& rng, std::uint64_t case_seed) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return "";
    case 1:
      return ";Computer: fuzz\n;Note: comment-only file\n";
    case 2:
      return "; stray comment\n\n\n;another\n";
    case 3:
      return "not an swf line at all\n";
    default: {
      const auto trace = fuzz_workload(case_seed,
                                       std::size_t(rng.uniform_int(3, 40)),
                                       32);
      swf::WriterOptions w;
      w.include_header = rng.bernoulli(0.8);
      return swf::write_swf_string(trace, w);
    }
  }
}

void mutate(std::string& text, util::Rng& rng) {
  if (text.empty() && !rng.bernoulli(0.3)) return;
  const int rounds = int(rng.uniform_int(0, 4));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 8)) {
      case 0: {  // bit flip
        if (text.empty()) break;
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(text[pos] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1: {  // byte splice (NUL and high bytes included)
        if (text.empty()) break;
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(rng.uniform_int(0, 255));
        break;
      }
      case 2: {  // token splice
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        const auto& tok = kSpliceTokens[std::size_t(rng.uniform_int(
            0, std::int64_t(std::size(kSpliceTokens)) - 1))];
        text.insert(pos, tok);
        break;
      }
      case 3: {  // huge token
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, huge_token(rng));
        break;
      }
      case 4: {  // truncated tail
        if (text.empty()) break;
        text.resize(std::size_t(rng.uniform_int(0,
                                                std::int64_t(text.size()))));
        break;
      }
      case 5: {  // CRLF: convert some or all newlines
        std::string out;
        out.reserve(text.size() + 16);
        const bool all = rng.bernoulli(0.5);
        for (char c : text) {
          if (c == '\n' && (all || rng.bernoulli(0.3))) out += '\r';
          out += c;
        }
        text = std::move(out);
        break;
      }
      case 6: {  // insert a comment / blank / junk line mid-file
        const char* lines[] = {";mid comment\n", "\n", "   \t  \n",
                               "1 2 3\n", "; \n", "\v\f\n"};
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, lines[std::size_t(rng.uniform_int(
                             0, std::int64_t(std::size(lines)) - 1))]);
        break;
      }
      case 7: {  // duplicate a random span
        if (text.empty()) break;
        const auto a = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        const auto len = std::size_t(rng.uniform_int(
            1, std::min<std::int64_t>(200, std::int64_t(text.size() - a))));
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, text.substr(a, len));
        break;
      }
      case 8: {  // delete a random span
        if (text.empty()) break;
        const auto a = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        const auto len = std::size_t(rng.uniform_int(
            1, std::min<std::int64_t>(200, std::int64_t(text.size() - a))));
        text.erase(a, len);
        break;
      }
    }
  }
}

std::string describe(const swf::ParseError& e) {
  return std::to_string(e.line) + ": " + e.message;
}

/// Physical lines in `text`, counted the way getline does: an
/// unterminated last line counts too.
std::size_t physical_lines(const std::string& text) {
  const auto n = std::size_t(std::count(text.begin(), text.end(), '\n'));
  return n + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

}  // namespace

std::string check_parse(const std::string& text, const ParseCheck& check) {
  swf::ReaderOptions options;
  options.strict = check.strict;
  options.allow_extra_fields = check.allow_extra;
  // The oracle: every record, every error, every comment.
  const auto reference = reference_read_swf(text, options);
  const std::string mode = std::string(check.strict ? " strict" : "") +
                           (check.allow_extra ? " allow_extra" : "");

  options.chunk_bytes = check.chunk_bytes;
  for (const int threads : check.threads) {
    options.threads = threads;
    const std::string tag = " [threads=" + std::to_string(threads) +
                            " chunk=" + std::to_string(check.chunk_bytes) +
                            mode + "]";
    // Whole-trace load: everything must match, including
    // partial-execution records and the unbounded error list.
    const auto got = swf::read_swf_string(text, options);
    if (got.trace.records != reference.trace.records) {
      return "records diverge from the reference" + tag;
    }
    if (!(got.trace.header == reference.trace.header)) {
      return "header diverges from the reference" + tag;
    }
    if (got.errors.size() != reference.errors.size()) {
      return "error count " + std::to_string(got.errors.size()) +
             " != reference " + std::to_string(reference.errors.size()) + tag;
    }
    for (std::size_t i = 0; i < got.errors.size(); ++i) {
      if (!(got.errors[i] == reference.errors[i])) {
        return "error " + describe(got.errors[i]) + " != reference " +
               describe(reference.errors[i]) + tag;
      }
    }
  }

  // Streamed: a JobSource yields the summary records, keeps the first
  // kMaxStoredErrors errors and counts them all. (Checked documents stay
  // below the 256 stored post-header comments, so the header must match
  // in full.)
  options.threads = 1;
  options.chunk_bytes = check.window_bytes;
  const std::string tag =
      " [window=" + std::to_string(check.window_bytes) + mode + "]";
  swf::TraceReader reader(std::make_unique<std::istringstream>(text), "check",
                          options);
  std::vector<swf::JobRecord> records;
  while (auto r = reader.next()) records.push_back(*r);
  std::vector<swf::JobRecord> summaries;
  std::size_t partials = 0;
  for (const auto& r : reference.trace.records) {
    if (r.is_summary()) {
      summaries.push_back(r);
    } else {
      ++partials;
    }
  }
  if (records != summaries) {
    return "streamed records diverge from the reference" + tag;
  }
  if (!(reader.header() == reference.trace.header)) {
    return "streamed header diverges from the reference" + tag;
  }
  if (reader.ok() != reference.ok()) {
    return "verdict diverges: streamed ok()=" + std::to_string(reader.ok()) +
           tag;
  }
  if (reader.error_count() != reference.errors.size()) {
    return "streamed error_count " + std::to_string(reader.error_count()) +
           " != reference " + std::to_string(reference.errors.size()) + tag;
  }
  const std::vector<swf::ParseError> stored(
      reference.errors.begin(),
      reference.errors.begin() +
          std::ptrdiff_t(
              std::min(reference.errors.size(), swf::kMaxStoredErrors)));
  if (reader.errors() != stored) {
    return "bounded error list diverges from the reference" + tag;
  }
  if (reader.partials_skipped() != partials) {
    return "partials_skipped " + std::to_string(reader.partials_skipped()) +
           " != " + std::to_string(partials) + tag;
  }
  // A strict stop ends the read at the offending line.
  const std::size_t lines = check.strict && !reference.errors.empty()
                                ? reference.errors.front().line
                                : physical_lines(text);
  if (reader.lines_read() != lines) {
    return "lines_read " + std::to_string(reader.lines_read()) +
           " != " + std::to_string(lines) + tag;
  }
  return {};
}

std::string ParserFuzzReport::summary() const {
  std::string s = "parser fuzzer: " + std::to_string(cases) + " cases, " +
                  std::to_string(failure_count) + " failure(s)";
  if (failure_count > failures.size()) {
    s += " (first " + std::to_string(failures.size()) + " shown)";
  }
  for (const auto& f : failures) s += "\n  " + f;
  return s;
}

ParserFuzzReport run_parser_fuzzer(const ParserFuzzOptions& options) {
  ParserFuzzReport report;
  for (int c = 0; c < options.cases; ++c) {
    const std::uint64_t case_seed =
        util::derive_seed(options.seed, std::uint64_t(c));
    util::Rng rng(case_seed);
    std::string text = base_input(rng, case_seed);
    mutate(text, rng);
    ParseCheck check;
    check.strict = rng.bernoulli(0.25);
    check.allow_extra = rng.bernoulli(0.25);
    // Tiny random chunks and windows move the boundaries through every
    // line; 0 leaves the defaults in play.
    check.chunk_bytes =
        rng.bernoulli(0.75) ? std::size_t(rng.uniform_int(1, 257)) : 0;
    check.window_bytes =
        rng.bernoulli(0.75) ? std::size_t(rng.uniform_int(1, 257)) : 0;
    check.threads = options.thread_counts;
    ++report.cases;
    std::string failure;
    try {
      failure = check_parse(text, check);
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
    if (!failure.empty()) {
      ++report.failure_count;
      if (report.failures.size() < kFuzzFailuresKept) {
        report.failures.push_back(
            "[case=" + std::to_string(c) +
            " seed=" + std::to_string(options.seed) +
            " (derived " + std::to_string(case_seed) + ")] " + failure);
      }
    }
  }
  return report;
}

}  // namespace pjsb::validate
