#include "core/swf/reader.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>
#include <type_traits>

#include "util/chunk.hpp"
#include "util/mmap_file.hpp"
#include "util/resource.hpp"
#include "util/string_util.hpp"

namespace pjsb::swf {

using detail::ChunkResult;

namespace {

/// Post-header comments a TraceReader keeps before counting only.
constexpr std::size_t kMaxStoredComments = 256;
/// Whole-trace loads keep every error and comment.
constexpr auto kUnbounded = std::size_t(-1);
/// Auto-chunking floor: below this, per-chunk overhead dominates.
constexpr std::size_t kMinAutoChunk = std::size_t(256) << 10;
/// Default TraceReader refill size: about 2k records of 66 bytes, whose
/// 144-byte JobRecords fit beside the window in well under 1 MiB.
constexpr std::size_t kWindowBytes = std::size_t(128) << 10;
/// Rough bytes-per-record guess for the reserve() ahead of a chunk.
constexpr std::size_t kBytesPerRecordGuess = 48;

/// Newline count, memchr-paced — sizes the record reserve exactly
/// instead of over-reserving from a bytes-per-record guess.
std::size_t count_newlines(std::string_view text) {
  std::size_t n = 0;
  const char* q = text.data();
  const char* const qe = q + text.size();
  while (q < qe) {
    const void* hit = std::memchr(q, '\n', std::size_t(qe - q));
    if (!hit) break;
    ++n;
    q = static_cast<const char*>(hit) + 1;
  }
  return n;
}

/// The fused scanner parses a line into int64 values[18] in SWF field
/// order and commits them to a JobRecord with ONE memcpy. That is only
/// sound because JobRecord lays its 18 fields out contiguously in
/// exactly that order (Status is int64-backed and values[10] is
/// range-checked to the enum's domain before the copy); these asserts
/// pin the layout so a reordered field breaks the build, not the data.
static_assert(sizeof(JobRecord) == kFieldCount * sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<JobRecord>);
static_assert(offsetof(JobRecord, job_number) == 0 * 8 &&
              offsetof(JobRecord, submit_time) == 1 * 8 &&
              offsetof(JobRecord, wait_time) == 2 * 8 &&
              offsetof(JobRecord, run_time) == 3 * 8 &&
              offsetof(JobRecord, allocated_procs) == 4 * 8 &&
              offsetof(JobRecord, avg_cpu_time) == 5 * 8 &&
              offsetof(JobRecord, used_memory_kb) == 6 * 8 &&
              offsetof(JobRecord, requested_procs) == 7 * 8 &&
              offsetof(JobRecord, requested_time) == 8 * 8 &&
              offsetof(JobRecord, requested_memory_kb) == 9 * 8 &&
              offsetof(JobRecord, status) == 10 * 8 &&
              offsetof(JobRecord, user_id) == 11 * 8 &&
              offsetof(JobRecord, group_id) == 12 * 8 &&
              offsetof(JobRecord, executable_id) == 13 * 8 &&
              offsetof(JobRecord, queue_id) == 14 * 8 &&
              offsetof(JobRecord, partition_id) == 15 * 8 &&
              offsetof(JobRecord, preceding_job) == 16 * 8 &&
              offsetof(JobRecord, think_time) == 17 * 8);
static_assert(std::is_same_v<std::underlying_type_t<Status>, std::int64_t>);

/// What one physical line turned out to be.
enum class LineKind { kBlank, kComment, kRecord, kError };

struct LineScan {
  LineKind kind = LineKind::kBlank;
  /// kComment: body after the ';' (view into the input line).
  std::string_view comment;
  /// kError: diagnostic, byte-identical to parse_record_line's.
  std::string error;
};

/// Classify and parse one physical line (newline already stripped, not
/// yet trimmed). The all-digits case is a single pass over the bytes;
/// anything else falls back to parse_record_line, so the verdict and
/// message are the grammar's own.
LineScan scan_swf_line(std::string_view raw, bool allow_extra,
                       JobRecord& out) {
  const std::string_view trimmed = util::trim(raw);
  LineScan scan;
  if (trimmed.empty()) {
    scan.kind = LineKind::kBlank;
    return scan;
  }
  if (trimmed.front() == ';') {
    scan.kind = LineKind::kComment;
    scan.comment = trimmed.substr(1);
    return scan;
  }
  // Fast path: space/tab-separated decimal fields, optionally negative,
  // at most 18 digits each (always within int64). One pass, no
  // allocation; the first deviation defers to the full grammar.
  const char* p = trimmed.data();
  const char* const e = p + trimmed.size();
  std::int64_t values[kFieldCount];
  int field = 0;
  bool fallback = false;
  while (p < e) {
    while (p < e && (*p == ' ' || *p == '\t')) ++p;
    if (p >= e) break;
    bool neg = false;
    if (*p == '-') {
      neg = true;
      ++p;
    }
    if (p >= e || *p < '0' || *p > '9') {
      fallback = true;
      break;
    }
    std::uint64_t v = 0;
    int digits = 0;
    do {
      v = v * 10 + std::uint64_t(*p - '0');
      ++digits;
      ++p;
    } while (p < e && *p >= '0' && *p <= '9');
    if (digits > 18 || (p < e && *p != ' ' && *p != '\t')) {
      fallback = true;
      break;
    }
    if (field < kFieldCount) {
      values[field] = neg ? -std::int64_t(v) : std::int64_t(v);
    } else if (!allow_extra) {
      fallback = true;
      break;
    }
    ++field;
  }
  if (!fallback && field >= kFieldCount && values[10] >= -1 &&
      values[10] <= 4) {
    // Layout-checked above; values[10] is range-checked, so the
    // representation is a valid Status.
    std::memcpy(&out, values, sizeof(JobRecord));
    scan.kind = LineKind::kRecord;
    return scan;
  }
  std::string err = parse_record_line(trimmed, allow_extra, out);
  if (err.empty()) {
    scan.kind = LineKind::kRecord;
  } else {
    scan.kind = LineKind::kError;
    scan.error = std::move(err);
  }
  return scan;
}

/// Parse one newline-aligned piece into `out`, reusing its buffers.
void parse_chunk(std::string_view chunk, bool strict, bool allow_extra,
                 std::size_t max_errors, ChunkResult& out) {
  out.records.clear();
  out.errors.clear();
  out.comments.clear();
  out.error_count = out.lines = out.first_data_line = 0;
  out.stopped = false;
  // Exact-size the reserve: one record per line is the ceiling (+1
  // for an unterminated tail). Counting newlines costs one streaming
  // memchr pass; growing or over-reserving costs far more in faults.
  const std::size_t guess =
      chunk.size() > kMinAutoChunk
          ? count_newlines(chunk) + 1
          : chunk.size() / kBytesPerRecordGuess + 1;
  out.records.reserve(guess);
  util::prefault(out.records.data(), guess * sizeof(JobRecord));
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  // Split the chunk at its last '\n': every line in [p, scan_end) is
  // newline-terminated, so the fused loop below can use '\n' as a
  // sentinel and skip per-character bounds checks entirely. The
  // unterminated tail (at most one line, usually empty) replays
  // through the shared scanner.
  const char* scan_end = end;
  while (scan_end > p && scan_end[-1] != '\n') --scan_end;
  // Any line the fast path rejects — comment, CR, junk byte, overlong
  // token, field-count or status problem — replays wholesale through
  // scan_swf_line, whose parse_record_line fallback owns every verdict
  // and every diagnostic byte.
  const auto slow_line = [&](std::string_view line) {
    out.records.emplace_back();
    LineScan scan = scan_swf_line(line, allow_extra, out.records.back());
    switch (scan.kind) {
      case LineKind::kBlank:
        out.records.pop_back();
        break;
      case LineKind::kComment:
        out.records.pop_back();
        out.comments.emplace_back(out.lines, scan.comment);
        break;
      case LineKind::kRecord:
        if (out.first_data_line == 0) out.first_data_line = out.lines;
        break;
      case LineKind::kError:
        out.records.pop_back();
        if (out.first_data_line == 0) out.first_data_line = out.lines;
        ++out.error_count;
        if (out.errors.size() < max_errors) {
          out.errors.push_back({out.lines, std::move(scan.error)});
        }
        if (strict) out.stopped = true;
        break;
    }
    return out.stopped;
  };
  while (p < scan_end) {
    const char* const line_start = p;
    ++out.lines;
    // Fused fast path: split fields and find the line end in ONE pass
    // — no memchr-then-rescan, no trim, no bounds checks (the line's
    // own '\n' is the sentinel). Accepts exactly the lines made of 18
    // space/tab-separated optionally-negative <=18-digit decimal
    // fields; anything else rewinds to line_start for the slow path.
    // The field loop is fully unrolled so every field gets its own
    // branch sites: SWF columns have near-constant shapes (field 2 is
    // a 7-8 digit submit time, field 3 is usually "-1", ...), and
    // per-field branch history predicts those shapes far better than
    // one shared token loop aggregating all 18 patterns.
    std::int64_t values[kFieldCount];
    const char* q = p;
    bool deviated = false;
    bool blank = false;
#pragma GCC unroll 18
    for (int f = 0; f < kFieldCount; ++f) {
      char c = *q;
      while (c == ' ' || c == '\t') c = *++q;
      const bool neg = c == '-';
      if (neg) c = *++q;
      if (c < '0' || c > '9') {
        // '\n' before the first token is a blank (whitespace-only)
        // line; anything else is the slow path's call.
        blank = f == 0 && !neg && c == '\n';
        deviated = !blank;
        break;
      }
      std::uint64_t v = 0;
      int digits = 0;
      do {
        v = v * 10 + std::uint64_t(c - '0');
        ++digits;
        c = *++q;
      } while (c >= '0' && c <= '9');
      if (digits > 18 || (c != ' ' && c != '\t' && c != '\n')) {
        deviated = true;
        break;
      }
      values[f] = neg ? -std::int64_t(v) : std::int64_t(v);
    }
    if (blank) {
      p = q + 1;  // consume the '\n'
      continue;
    }
    if (!deviated) {
      char c = *q;
      while (c == ' ' || c == '\t') c = *++q;
      if (c == '\n' && values[10] >= -1 && values[10] <= 4) {
        // Layout-checked above: values[] IS the record, status
        // included (values[10] is range-checked, so the
        // representation is a valid Status). One 144-byte copy
        // instead of 18 field stores.
        out.records.emplace_back();
        std::memcpy(&out.records.back(), values, sizeof(JobRecord));
        if (out.first_data_line == 0) out.first_data_line = out.lines;
        p = q + 1;  // consume the '\n'
        continue;
      }
      // Extra fields (legal only with allow_extra), a junk
      // terminator, or an out-of-range status: slow path either way.
    }
    p = q;  // q never passes the line's '\n'
    const void* nl = std::memchr(p, '\n', std::size_t(scan_end - p));
    const char* const line_end = static_cast<const char*>(nl);
    p = line_end + 1;
    if (slow_line({line_start, std::size_t(line_end - line_start)})) return;
  }
  if (p < end) {
    // Unterminated final line.
    ++out.lines;
    slow_line({p, std::size_t(end - p)});
  }
}

}  // namespace

std::string parse_record_line(std::string_view line, bool allow_extra,
                              JobRecord& out) {
  const auto tokens = util::split_ws(line);
  if (tokens.size() < std::size_t(kFieldCount) ||
      (tokens.size() > std::size_t(kFieldCount) && !allow_extra)) {
    return "expected " + std::to_string(kFieldCount) + " fields, got " +
           std::to_string(tokens.size());
  }
  std::int64_t values[kFieldCount];
  for (int i = 0; i < kFieldCount; ++i) {
    const auto v = util::parse_i64(tokens[std::size_t(i)]);
    if (!v) {
      return "field " + std::to_string(i + 1) + " is not an integer: '" +
             std::string(tokens[std::size_t(i)]) + "'";
    }
    values[i] = *v;
  }
  if (values[10] < -1 || values[10] > 4) {
    return "field 11 (status) out of range: " + std::to_string(values[10]);
  }
  std::memcpy(&out, values, sizeof(JobRecord));
  return {};
}

// A whole-trace parse: newline-aligned chunks on a small worker pool,
// stitched back in file order. The header block ends at the first data
// line anywhere in the input, exactly as a sequential read sees it;
// strict mode drops everything after the first stopped chunk.
ReadResult read_swf_string(std::string_view buffer,
                           const ReaderOptions& options) {
  const int threads = std::max(options.threads, 1);
  std::size_t target = options.chunk_bytes;
  if (target == 0) {
    target = threads == 1
                 ? buffer.size()
                 : std::max(buffer.size() / (std::size_t(threads) * 4),
                            kMinAutoChunk);
  }
  const auto chunks = util::split_line_chunks(buffer, target);
  std::vector<ChunkResult> results(chunks.size());
  const auto parse = [&](std::size_t i) {
    parse_chunk(chunks[i], options.strict, options.allow_extra_fields,
                kUnbounded, results[i]);
  };
  const std::size_t workers = std::min(std::size_t(threads), chunks.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      parse(i);
      // In strict mode nothing after the first bad chunk is used.
      if (results[i].stopped) break;
    }
  } else {
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= chunks.size()) return;
        parse(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t i = 0; i + 1 < workers; ++i) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
  }

  ReadResult result;
  auto& records = result.trace.records;
  // Single-chunk parses (threads=1, the common case) hand their record
  // vector over wholesale; only a parallel parse pays for stitching.
  if (results.size() == 1) {
    records = std::move(results.front().records);
  } else {
    std::size_t total = 0;
    for (const auto& c : results) total += c.records.size();
    records.reserve(total);
    util::prefault(records.data(), total * sizeof(JobRecord));
  }
  detail::Ledger ledger;
  for (auto& c : results) {
    ledger.absorb(c, kUnbounded, kUnbounded);
    if (results.size() > 1) {
      records.insert(records.end(), c.records.begin(), c.records.end());
    }
    if (c.stopped) break;
  }
  result.trace.header = std::move(ledger.header);
  result.errors = std::move(ledger.errors);
  return result;
}

ReadResult read_swf_file(const std::string& path,
                         const ReaderOptions& options) {
  util::MmapFile file(path);
  if (!file.ok()) {
    ReadResult result;
    result.errors.push_back({0, "cannot open file: " + path});
    return result;
  }
  return read_swf_string(file.view(), options);
}

namespace detail {

void Ledger::absorb(ChunkResult& piece, std::size_t max_errors,
                    std::size_t max_extra_comments) {
  for (const auto& [line, body] : piece.comments) {
    if (in_header &&
        (piece.first_data_line == 0 || line < piece.first_data_line)) {
      absorb_header_line(header, std::string(body));
    } else if (extra_comments < max_extra_comments) {
      // Comments after the first record are preserved but cannot be
      // header directives per the standard ("the beginning of every
      // file contains several such lines").
      header.extra_comments.emplace_back(body);
      ++extra_comments;
    }
  }
  if (piece.first_data_line != 0) in_header = false;
  for (auto& e : piece.errors) {
    if (errors.size() >= max_errors) break;
    errors.push_back({lines + e.line, std::move(e.message)});
  }
  error_count += piece.error_count;
  lines += piece.lines;
}

}  // namespace detail

TraceReader::TraceReader(const std::string& path, const ReaderOptions& options)
    : options_(options), label_("trace:" + path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    fail_open("cannot open file: " + path);
    return;
  }
  in_ = std::move(file);
  start();
}

TraceReader::TraceReader(std::unique_ptr<std::istream> in, std::string label,
                         const ReaderOptions& options)
    : options_(options), in_(std::move(in)), label_(std::move(label)) {
  if (!in_) {
    fail_open("null input stream");
    return;
  }
  start();
}

void TraceReader::start() {
  // Both buffers are sized once and reused by every refill, so a long
  // replay does not churn the allocator.
  window_.resize(window_bytes());
  parsed_.records.reserve(window_bytes() / kBytesPerRecordGuess + 1);
  // The engine sizes the machine from MaxNodes before pulling a job, so
  // the header block is read now, however many windows it spans.
  while (ledger_.in_header && refill()) {
  }
}

std::size_t TraceReader::window_bytes() const {
  return options_.chunk_bytes > 0 ? options_.chunk_bytes : kWindowBytes;
}

void TraceReader::fail_open(std::string message) {
  open_failed_ = true;
  exhausted_ = true;
  ledger_.errors.push_back({0, std::move(message)});
  ledger_.error_count = 1;
}

bool TraceReader::refill() {
  if (exhausted_) return false;
  const std::size_t step = window_bytes();
  // Fill the window up behind the carried partial line until it holds
  // a whole line or the input ends; a line longer than the window grows
  // it a step at a time rather than being split.
  std::size_t end = carry_;
  std::size_t cut = 0;  // window_[0, cut) is the piece to parse
  while (cut == 0) {
    const std::size_t want = end < step ? step - end : step;
    window_.resize(end + want);
    in_->read(window_.data() + end, std::streamsize(want));
    const auto got = std::size_t(in_->gcount());
    const std::size_t fresh = end;
    end += got;
    if (got < want) {  // a short read is the end of the input
      exhausted_ = true;
      cut = end;
      break;
    }
    for (std::size_t i = end; i > fresh; --i) {
      if (window_[i - 1] == '\n') {
        cut = i;
        break;
      }
    }
  }
  if (cut == 0) return false;
  parse_chunk({window_.data(), cut}, options_.strict,
              options_.allow_extra_fields, kMaxStoredErrors, parsed_);
  next_pos_ = 0;
  // Comment bodies point into the window: absorb before moving bytes.
  ledger_.absorb(parsed_, kMaxStoredErrors, kMaxStoredComments);
  if (parsed_.stopped) exhausted_ = true;
  carry_ = end - cut;
  std::memmove(window_.data(), window_.data() + cut, carry_);
  return true;
}

std::optional<JobRecord> TraceReader::next() {
  for (;;) {
    while (next_pos_ < parsed_.records.size()) {
      const JobRecord& record = parsed_.records[next_pos_++];
      if (record.is_summary()) {
        ++records_returned_;
        return record;
      }
      ++partials_skipped_;
    }
    if (!refill()) return std::nullopt;
  }
}

}  // namespace pjsb::swf
