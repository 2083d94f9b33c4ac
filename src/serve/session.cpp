#include "serve/session.hpp"

#include <exception>

namespace pjsb::serve {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kHandshake:
      return "handshake";
    case SessionState::kAuth:
      return "auth";
    case SessionState::kServing:
      return "serving";
    case SessionState::kDraining:
      return "draining";
    case SessionState::kClosed:
      return "closed";
  }
  return "unknown";
}

Session::Session(ServerCore& core, std::int64_t session_id)
    : core_(core), session_id_(session_id) {}

std::string Session::handle_line(const std::string& line) {
  std::string error;
  const auto request = parse_request(line, &error);
  if (!request) {
    return serialize_response(error_response(kErrBadRequest, error));
  }
  // Read verbs run on this (connection) thread: an exception escaping
  // here would end the whole daemon, so it becomes this request's reply
  // and the session stays open.
  try {
    return serialize_response(dispatch(*request));
  } catch (const std::exception& e) {
    return serialize_response(error_response(kErrInternal, e.what()));
  }
}

Response Session::dispatch(const Request& request) {
  // A server-wide drain initiated by another session moves this one
  // along too, lazily, so its own FSM reflects what the core will and
  // will not accept.
  if (state_ == SessionState::kServing && core_.draining()) {
    state_ = SessionState::kDraining;
  }

  switch (state_) {
    case SessionState::kHandshake: {
      if (request.verb != Verb::kHello) {
        return error_response(kErrState, "HELLO first");
      }
      const bool need_auth = !core_.auth_token().empty();
      state_ = need_auth ? SessionState::kAuth : SessionState::kServing;
      if (state_ == SessionState::kServing && core_.draining()) {
        state_ = SessionState::kDraining;
      }
      return ok_response()
          .with("proto", std::int64_t(kProtocolVersion))
          .with("server", "pjsb")
          .with("session", session_id_)
          .with("auth", need_auth ? "required" : "none");
    }
    case SessionState::kAuth: {
      if (request.verb != Verb::kAuth) {
        return error_response(kErrState, "AUTH <token> first");
      }
      if (request.arg != core_.auth_token()) {
        return error_response(kErrAuth, "bad token");
      }
      state_ = core_.draining() ? SessionState::kDraining
                                : SessionState::kServing;
      return ok_response().with("auth", "ok");
    }
    case SessionState::kClosed:
      return error_response(kErrState, "session closed");
    case SessionState::kServing:
    case SessionState::kDraining:
      break;
  }

  const bool draining = state_ == SessionState::kDraining;
  switch (request.verb) {
    case Verb::kHello:
      return error_response(kErrState, "already past handshake");
    case Verb::kAuth:
      return error_response(kErrState, "already authenticated");
    case Verb::kSubmit:
      if (draining) return error_response(kErrDraining, "drained");
      return core_.submit(request);
    case Verb::kKill:
      if (draining) return error_response(kErrDraining, "drained");
      return core_.kill(request.job_id);
    case Verb::kResume:
      if (draining) return error_response(kErrDraining, "drained");
      return core_.resume(request.arg);
    case Verb::kQuery:
      return core_.query(request.job_id);
    case Verb::kWhatIf:
      return core_.whatif(request);
    case Verb::kStatus:
      return core_.status();
    case Verb::kSnapshot:
      return core_.snapshot(request.arg);
    case Verb::kDrain: {
      const Response response = core_.drain();
      if (response.ok) state_ = SessionState::kDraining;
      return response;
    }
    case Verb::kShutdown: {
      const Response response = core_.shutdown();
      if (response.ok) state_ = SessionState::kClosed;
      return response;
    }
  }
  return error_response(kErrInternal, "unhandled verb");
}

}  // namespace pjsb::serve
