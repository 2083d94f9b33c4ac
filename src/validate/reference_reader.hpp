// The reference SWF reader: a plain getline loop over an istream, one
// trimmed line at a time through swf::parse_record_line. It is slow and
// obviously correct, and serves as the oracle that the production
// reader (swf::read_swf_file, swf::TraceReader) is checked against by
// the differential tests, the parser fuzzer and bench_ingest.
#pragma once

#include <istream>
#include <string_view>

#include "core/swf/reader.hpp"

namespace pjsb::validate {

/// Every record (partials included), every error, every comment; stops
/// at the first error in strict mode. Ignores options.threads and
/// options.chunk_bytes.
swf::ReadResult reference_read_swf(std::istream& in,
                                   const swf::ReaderOptions& options = {});
swf::ReadResult reference_read_swf(std::string_view text,
                                   const swf::ReaderOptions& options = {});

}  // namespace pjsb::validate
