// SWF reader. "The file format is easy to parse and use: while it is a
// text file ... all data is in integers" — the reader enforces exactly
// that, producing a diagnostic (not a crash, not a silent coercion) for
// every malformed line.
//
// There is one parser. Text is cut into newline-aligned pieces and each
// piece runs through one fused scanner: a single in-place pass over the
// 18 integer columns that commits a record with one memcpy. Any other
// line shape (comment, blank, CR, junk, overlong token, wrong field
// count, status out of range) replays through parse_record_line, which
// owns every verdict and every diagnostic message. Two front ends feed
// it:
//
//   * whole-trace loads (read_swf_file, read_swf_string) map the file
//     (util::MmapFile; pipes fall back to a read() slurp), parse its
//     chunks on `threads` workers and stitch them back in file order —
//     O(file) memory;
//   * TraceReader streams a path or std::istream through a fixed refill
//     window — O(window) memory, independent of trace length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/swf/job_source.hpp"
#include "core/swf/trace.hpp"

namespace pjsb::swf {

/// A parse-level problem, attributed to a physical line.
struct ParseError {
  std::size_t line = 0;       ///< 1-based physical line number
  std::string message;

  bool operator==(const ParseError&) const = default;
};

/// Result of reading a whole trace: every record (partial-execution
/// lines included), plus every line that could not be parsed. In strict
/// mode parsing stops at the first error.
struct ReadResult {
  Trace trace;
  std::vector<ParseError> errors;
  bool ok() const { return errors.empty(); }
};

struct ReaderOptions {
  /// Stop at the first malformed line instead of skipping it.
  bool strict = false;
  /// Accept lines with more than 18 fields by ignoring the excess
  /// (some archive tools append annotations). Lines with fewer than 18
  /// fields are always errors.
  bool allow_extra_fields = false;
  /// Worker threads for whole-trace loads; 1 parses inline. TraceReader
  /// ignores it: its windows are below the parallel chunk floor.
  int threads = 1;
  /// Test seam for boundary placement: the chunk target of a whole-trace
  /// load and the refill size of a TraceReader window. 0 picks the
  /// defaults (whole-trace chunks sized from the thread count; 128 KiB
  /// windows).
  std::size_t chunk_bytes = 0;
};

/// TraceReader keeps at most this many ParseErrors; the count stays
/// exact.
inline constexpr std::size_t kMaxStoredErrors = 64;

/// Parse one 18-field record line (no comments, already trimmed).
/// Returns an error message, or an empty string on success. This is the
/// grammar's authority: the fused scanner defers to it for every line
/// it does not accept outright.
std::string parse_record_line(std::string_view line, bool allow_extra,
                              JobRecord& out);

/// Parse SWF text held in memory.
ReadResult read_swf_string(std::string_view text,
                           const ReaderOptions& options = {});

/// Parse a file from disk; adds a line-0 error if it cannot be opened.
ReadResult read_swf_file(const std::string& path,
                         const ReaderOptions& options = {});

namespace detail {

/// What one newline-aligned piece of SWF text parsed into. Line numbers
/// are local to the piece; comment bodies point into its bytes.
struct ChunkResult {
  std::vector<JobRecord> records;  ///< all records, partials included
  std::vector<ParseError> errors;  ///< the first max_errors
  std::size_t error_count = 0;     ///< exact
  std::vector<std::pair<std::size_t, std::string_view>> comments;
  std::size_t lines = 0;
  /// Local line of the first record-or-error line; 0 = none. The
  /// header block ends at the first such line of the whole input.
  std::size_t first_data_line = 0;
  bool stopped = false;  ///< strict mode tripped in this piece
};

/// Header and diagnostics of the pieces absorbed so far, in file order.
struct Ledger {
  TraceHeader header;
  std::vector<ParseError> errors;  ///< physical line numbers
  std::size_t error_count = 0;
  std::size_t lines = 0;
  std::size_t extra_comments = 0;  ///< post-header comments stored
  bool in_header = true;

  /// Fold in the next piece: header-block comments go into the header,
  /// later ones into extra_comments (at most max_extra_comments), and
  /// errors get their physical line numbers (at most max_errors kept).
  void absorb(ChunkResult& piece, std::size_t max_errors,
              std::size_t max_extra_comments);
};

}  // namespace detail

/// Streaming SWF reader: the JobSource for trace files. It reads a
/// fixed-size window at a time, parses the whole lines in it, and
/// carries the partial last line into the next refill; the window and
/// its record buffer are reused, so memory does not grow with the
/// trace. It yields whole-job summaries only (partial-execution lines
/// are skipped and counted). The header block is parsed at
/// construction, so header() is complete before the first next().
/// Diagnostics grow as windows are consumed and are complete once
/// next() returns nullopt.
class TraceReader final : public JobSource {
 public:
  /// Open a file. Failure to open is not a throw: the source is empty,
  /// open_failed() is true and errors() holds a line-0 diagnostic.
  explicit TraceReader(const std::string& path,
                       const ReaderOptions& options = {});
  /// Read from an owned stream (pipes, tests).
  TraceReader(std::unique_ptr<std::istream> in, std::string label,
              const ReaderOptions& options = {});

  std::optional<JobRecord> next() override;
  const TraceHeader& header() const override { return ledger_.header; }
  std::string label() const override { return label_; }

  /// True while the input opened and no parse error has surfaced.
  bool ok() const { return !open_failed_ && ledger_.error_count == 0; }
  bool open_failed() const { return open_failed_; }
  /// The first kMaxStoredErrors diagnostics, in line order.
  const std::vector<ParseError>& errors() const { return ledger_.errors; }
  /// Exact total, including diagnostics beyond the storage bound.
  std::size_t error_count() const { return ledger_.error_count; }
  std::size_t records_returned() const { return records_returned_; }
  /// Checkpoint/partial (status 2-4) lines skipped.
  std::size_t partials_skipped() const { return partials_skipped_; }
  /// Physical lines parsed so far.
  std::size_t lines_read() const { return ledger_.lines; }

 private:
  /// Size the buffers and read the header block.
  void start();
  std::size_t window_bytes() const;
  /// Parse the next window; false once the input is exhausted (or
  /// strict mode stopped it).
  bool refill();
  void fail_open(std::string message);

  ReaderOptions options_;
  std::unique_ptr<std::istream> in_;
  std::string label_;
  bool open_failed_ = false;
  bool exhausted_ = false;

  std::string window_;
  std::size_t carry_ = 0;  ///< partial line kept at the window's front
  detail::ChunkResult parsed_;
  std::size_t next_pos_ = 0;
  detail::Ledger ledger_;
  std::size_t records_returned_ = 0;
  std::size_t partials_skipped_ = 0;
};

}  // namespace pjsb::swf
