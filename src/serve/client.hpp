// Blocking client for the scheduling daemon: one socket, one
// request/response round trip per call. Used by `swf_tool client`, the
// tests, the CI smoke step and bench_serve — everything that talks to
// the daemon goes through this library, so protocol drift shows up as
// a compile error, not a wire mystery.
//
// Not thread-safe: one Client per thread (a connection carries one
// session, and sessions are serial by design).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace pjsb::serve {

class Client {
 public:
  /// Connect (Unix-domain or loopback TCP). Throws std::runtime_error
  /// when the endpoint is unreachable.
  static Client connect_unix(const std::string& path);
  static Client connect_tcp(int port);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One round trip. Throws std::runtime_error on a broken connection
  /// or an unparseable response; protocol-level errors come back as
  /// Response{ok == false}.
  Response request(const Request& request);
  /// Raw request line (diagnostics / the `swf_tool client cmd` mode).
  Response request_line(const std::string& line);

  /// HELLO (and AUTH when the server demands it). Throws on refusal.
  void handshake(const std::string& token = "",
                 const std::string& client_name = "");

  // Typed conveniences; each is one round trip.
  Response submit(std::int64_t procs, std::int64_t estimate,
                  std::optional<std::int64_t> at = std::nullopt,
                  std::optional<std::int64_t> runtime = std::nullopt,
                  std::optional<std::int64_t> id = std::nullopt,
                  std::int64_t user = -1);
  Response kill(std::int64_t job_id);
  Response query(std::int64_t job_id);
  Response whatif(std::int64_t procs, std::int64_t estimate,
                  std::int64_t offset = 0, bool simulate = false);
  Response status();
  Response snapshot(const std::string& path);
  Response resume(const std::string& path);
  Response drain();
  Response shutdown();

 private:
  explicit Client(int fd);

  int fd_ = -1;
  net::LineReader reader_;
};

}  // namespace pjsb::serve
