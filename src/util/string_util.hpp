// Small string helpers shared by the SWF / outage / raw-log parsers
// and the JSON writers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pjsb::util {

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of spaces/tabs; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Parse a decimal signed 64-bit integer; the *entire* token must be
/// consumed. Returns nullopt on any malformed input (the SWF reader
/// turns that into a diagnostic rather than silently coercing).
std::optional<std::int64_t> parse_i64(std::string_view token);

/// Parse a decimal double (entire token). Used only by raw-log
/// converters; the SWF body itself is integers-only by design.
std::optional<double> parse_f64(std::string_view token);

/// Case-sensitive prefix test.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lowercase copy (ASCII).
std::string to_lower(std::string_view s);

/// The body of a JSON string literal holding `s`: quote, backslash and
/// every control character escaped (\n, \t, \r by name, the rest as
/// \u00XX); other bytes pass through unchanged.
std::string json_escape(std::string_view s);

}  // namespace pjsb::util
