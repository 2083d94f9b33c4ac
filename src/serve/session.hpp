// Per-connection session: a small FSM between the socket and the
// server core.
//
//   handshake --HELLO--> (auth --AUTH--> | ) serving --DRAIN-->
//   draining --SHUTDOWN--> closed
//
// The session owns protocol gating only — which verbs are legal in
// which state — and delegates every accepted verb to an abstract
// ServerCore, so the FSM is unit-testable against a mock core with no
// sockets or threads involved (the pppcpd per-session-FSM idiom). One
// request line in, one response line out; the transport layer
// (server.cpp) does the reading and writing.
#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace pjsb::serve {

/// What a session needs from the daemon. Implemented by Server;
/// mocked in tests. All methods must be safe to call from any session
/// (connection) thread concurrently.
class ServerCore {
 public:
  virtual ~ServerCore() = default;

  virtual Response submit(const Request& request) = 0;
  virtual Response kill(std::int64_t job_id) = 0;
  virtual Response query(std::int64_t job_id) = 0;
  virtual Response whatif(const Request& request) = 0;
  virtual Response status() = 0;
  virtual Response snapshot(const std::string& path) = 0;
  virtual Response resume(const std::string& path) = 0;
  virtual Response drain() = 0;
  virtual Response shutdown() = 0;

  /// True once a DRAIN was accepted (no further mutations).
  virtual bool draining() const = 0;
  /// Empty: no authentication required.
  virtual const std::string& auth_token() const = 0;
};

enum class SessionState {
  kHandshake,  ///< waiting for HELLO
  kAuth,       ///< HELLO done, waiting for AUTH
  kServing,
  kDraining,   ///< queries only; mutations refused
  kClosed,     ///< after SHUTDOWN — the connection should be dropped
};

const char* to_string(SessionState state);

class Session {
 public:
  Session(ServerCore& core, std::int64_t session_id);

  /// Process one request line, produce one response line (without the
  /// trailing newline). Never throws: malformed input becomes
  /// `ERR bad-request`, and an exception from the core becomes
  /// `ERR internal <what>`; the session stays open.
  std::string handle_line(const std::string& line);

  SessionState state() const { return state_; }
  bool closed() const { return state_ == SessionState::kClosed; }
  std::int64_t id() const { return session_id_; }

 private:
  Response dispatch(const Request& request);

  ServerCore& core_;
  const std::int64_t session_id_;
  SessionState state_ = SessionState::kHandshake;
};

}  // namespace pjsb::serve
