#include "validate/reference_reader.hpp"

#include <sstream>
#include <string>

#include "util/string_util.hpp"

namespace pjsb::validate {

swf::ReadResult reference_read_swf(std::istream& in,
                                   const swf::ReaderOptions& options) {
  swf::ReadResult result;
  std::string line;
  std::size_t line_no = 0;
  bool in_header = true;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == ';') {
      const std::string body{trimmed.substr(1)};
      if (in_header) {
        swf::absorb_header_line(result.trace.header, body);
      } else {
        result.trace.header.extra_comments.push_back(body);
      }
      continue;
    }
    in_header = false;
    swf::JobRecord record;
    const std::string err =
        swf::parse_record_line(trimmed, options.allow_extra_fields, record);
    if (!err.empty()) {
      result.errors.push_back({line_no, err});
      if (options.strict) return result;
      continue;
    }
    result.trace.records.push_back(record);
  }
  return result;
}

swf::ReadResult reference_read_swf(std::string_view text,
                                   const swf::ReaderOptions& options) {
  std::istringstream in{std::string(text)};
  return reference_read_swf(in, options);
}

}  // namespace pjsb::validate
