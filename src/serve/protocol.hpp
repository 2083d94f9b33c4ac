// Wire protocol of the scheduling daemon (`swf_tool serve`).
//
// Newline-delimited text, one request line per round trip, one
// response line back. Requests are a verb plus positional integers
// and optional key=value / --flag tokens:
//
//   HELLO [client-name]
//   AUTH <token>
//   SUBMIT <procs> <estimate-s> [at=<t>] [runtime=<s>] [id=<n>]
//          [user=<n>]
//   KILL <id>
//   QUERY <id>
//   WHATIF <procs> <estimate-s> [offset=<s>] [--simulate]
//   STATUS
//   SNAPSHOT <path>
//   RESUME <path>
//   DRAIN
//   SHUTDOWN
//
// Times (estimates, at=, runtime=, offset=) are seconds in
// [0, sim::kMaxTime], 2^40 s; a larger one is `ERR bad-request` naming
// the field.
//
// Responses are either `OK [key=value ...]` or
// `ERR <code> <message...>`; values never contain spaces (paths are
// the only free-form field and ride in requests, not responses). The
// codec is shared by the server (parse_request / serialize_response)
// and the client library (serialize_request / parse_response), so a
// grammar change cannot drift between the two sides.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pjsb::serve {

inline constexpr int kProtocolVersion = 1;

enum class Verb {
  kHello,
  kAuth,
  kSubmit,
  kKill,
  kQuery,
  kWhatIf,
  kStatus,
  kSnapshot,
  kResume,
  kDrain,
  kShutdown,
};

const char* to_string(Verb verb);

/// One parsed request line. Fields are meaningful per verb (see the
/// grammar above); the rest keep their defaults.
struct Request {
  Verb verb = Verb::kStatus;

  // SUBMIT / WHATIF positionals.
  std::int64_t procs = 1;
  std::int64_t estimate = 3600;
  // SUBMIT options.
  std::optional<std::int64_t> at;       ///< at= (default: daemon now)
  std::optional<std::int64_t> runtime;  ///< runtime= (default: estimate)
  std::optional<std::int64_t> id;       ///< id= (default: engine picks)
  std::int64_t user = -1;               ///< user=
  // WHATIF options.
  std::int64_t offset = 0;  ///< offset=
  bool simulate = false;    ///< --simulate
  // KILL / QUERY positional id.
  std::int64_t job_id = 0;
  // AUTH token, SNAPSHOT/RESUME path, HELLO client name.
  std::string arg;
};

/// Parse one request line. Nullopt on a malformed line, with *error
/// set to a one-line diagnostic (safe to echo into an ERR response).
std::optional<Request> parse_request(const std::string& line,
                                     std::string* error);
std::string serialize_request(const Request& request);

/// One response line.
struct Response {
  bool ok = true;
  std::string code;     ///< ERR only: stable machine-readable code
  std::string message;  ///< ERR only: human-readable detail
  /// OK only: key=value pairs in emission order.
  std::vector<std::pair<std::string, std::string>> fields;

  /// First value for `key`, if present.
  std::optional<std::string> field(const std::string& key) const;
  /// field() parsed as integer (nullopt: absent or non-numeric).
  std::optional<std::int64_t> field_i64(const std::string& key) const;

  Response& with(std::string key, std::string value);
  Response& with(std::string key, std::int64_t value);
};

Response ok_response();
Response error_response(std::string code, std::string message);

// Stable error codes.
inline constexpr const char* kErrBadRequest = "bad-request";
inline constexpr const char* kErrAuth = "auth";
inline constexpr const char* kErrState = "state";
inline constexpr const char* kErrDraining = "draining";
inline constexpr const char* kErrNotFound = "not-found";
inline constexpr const char* kErrIo = "io";
inline constexpr const char* kErrInternal = "internal";

std::string serialize_response(const Response& response);
/// Parse one response line (client side). Nullopt on garbage.
std::optional<Response> parse_response(const std::string& line,
                                       std::string* error);

}  // namespace pjsb::serve
