// Session FSM against a mock core: which verbs are legal in which
// state, with no sockets or threads involved.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace pjsb::serve {
namespace {

/// Records every verb it is asked to execute; drain/shutdown flip the
/// same flags the real server would.
class MockCore final : public ServerCore {
 public:
  explicit MockCore(std::string token = "") : token_(std::move(token)) {}

  Response submit(const Request&) override { return log("submit"); }
  Response kill(std::int64_t) override { return log("kill"); }
  Response query(std::int64_t) override { return log("query"); }
  Response whatif(const Request&) override {
    if (whatif_throws) {
      throw std::invalid_argument("submit_job: submit time in the past");
    }
    return log("whatif");
  }
  Response status() override { return log("status"); }
  Response snapshot(const std::string&) override {
    return log("snapshot");
  }
  Response resume(const std::string&) override { return log("resume"); }
  Response drain() override {
    draining_ = true;
    return log("drain");
  }
  Response shutdown() override { return log("shutdown"); }
  bool draining() const override { return draining_; }
  const std::string& auth_token() const override { return token_; }

  std::vector<std::string> calls;
  bool draining_ = false;
  bool whatif_throws = false;

 private:
  Response log(const char* what) {
    calls.emplace_back(what);
    return ok_response().with("via", what);
  }

  std::string token_;
};

bool is_err(const std::string& line, const std::string& code) {
  return util::starts_with(line, "ERR " + code);
}

TEST(Session, HandshakeThenServe) {
  MockCore core;
  Session session(core, 1);
  EXPECT_EQ(session.state(), SessionState::kHandshake);

  // Everything but HELLO is refused before the handshake.
  EXPECT_TRUE(is_err(session.handle_line("STATUS"), kErrState));
  EXPECT_TRUE(core.calls.empty());

  const auto greeting = session.handle_line("HELLO tester");
  EXPECT_TRUE(util::starts_with(greeting, "OK "));
  EXPECT_NE(greeting.find("proto=1"), std::string::npos);
  EXPECT_NE(greeting.find("auth=none"), std::string::npos);
  EXPECT_EQ(session.state(), SessionState::kServing);

  EXPECT_TRUE(
      util::starts_with(session.handle_line("SUBMIT 4 600"), "OK"));
  EXPECT_TRUE(util::starts_with(session.handle_line("STATUS"), "OK"));
  EXPECT_EQ(core.calls, (std::vector<std::string>{"submit", "status"}));

  // A second HELLO is a protocol error, not a reset.
  EXPECT_TRUE(is_err(session.handle_line("HELLO again"), kErrState));
}

TEST(Session, AuthRequiredAndRetried) {
  MockCore core("sesame");
  Session session(core, 1);
  const auto greeting = session.handle_line("HELLO");
  EXPECT_NE(greeting.find("auth=required"), std::string::npos);
  EXPECT_EQ(session.state(), SessionState::kAuth);

  // Serving verbs are refused until AUTH succeeds; a wrong token may
  // be retried.
  EXPECT_TRUE(is_err(session.handle_line("STATUS"), kErrState));
  EXPECT_TRUE(is_err(session.handle_line("AUTH wrong"), kErrAuth));
  EXPECT_EQ(session.state(), SessionState::kAuth);
  EXPECT_TRUE(util::starts_with(session.handle_line("AUTH sesame"), "OK"));
  EXPECT_EQ(session.state(), SessionState::kServing);
  EXPECT_TRUE(util::starts_with(session.handle_line("STATUS"), "OK"));
}

TEST(Session, MalformedLineIsBadRequest) {
  MockCore core;
  Session session(core, 1);
  session.handle_line("HELLO");
  EXPECT_TRUE(is_err(session.handle_line("FROBNICATE"), kErrBadRequest));
  EXPECT_TRUE(is_err(session.handle_line("SUBMIT nope"), kErrBadRequest));
  EXPECT_TRUE(core.calls.empty());
}

TEST(Session, DrainingBlocksMutationsOnly) {
  MockCore core;
  Session session(core, 1);
  session.handle_line("HELLO");
  EXPECT_TRUE(util::starts_with(session.handle_line("DRAIN"), "OK"));
  EXPECT_EQ(session.state(), SessionState::kDraining);

  EXPECT_TRUE(is_err(session.handle_line("SUBMIT 4 600"), kErrDraining));
  EXPECT_TRUE(is_err(session.handle_line("KILL 1"), kErrDraining));
  EXPECT_TRUE(is_err(session.handle_line("RESUME /tmp/x"), kErrDraining));
  // Queries still flow.
  EXPECT_TRUE(util::starts_with(session.handle_line("QUERY 1"), "OK"));
  EXPECT_TRUE(
      util::starts_with(session.handle_line("WHATIF 4 600"), "OK"));
  EXPECT_TRUE(util::starts_with(session.handle_line("STATUS"), "OK"));
  EXPECT_TRUE(
      util::starts_with(session.handle_line("SNAPSHOT /tmp/x"), "OK"));
}

TEST(Session, DrainElsewherePropagatesLazily) {
  // A DRAIN accepted on one session must gate every other session the
  // next time it speaks.
  MockCore core;
  Session a(core, 1);
  Session b(core, 2);
  a.handle_line("HELLO");
  b.handle_line("HELLO");
  a.handle_line("DRAIN");
  EXPECT_TRUE(is_err(b.handle_line("SUBMIT 4 600"), kErrDraining));
  EXPECT_EQ(b.state(), SessionState::kDraining);
}

TEST(Session, CoreExceptionBecomesInternalError) {
  // Read verbs run on the connection thread: an exception from the core
  // must become the reply, not escape the thread and end the daemon.
  MockCore core;
  core.whatif_throws = true;
  Session session(core, 1);
  session.handle_line("HELLO");
  const auto reply = session.handle_line("WHATIF 4 3600 --simulate");
  EXPECT_TRUE(is_err(reply, kErrInternal)) << reply;
  EXPECT_NE(reply.find("submit time in the past"), std::string::npos)
      << reply;
  EXPECT_EQ(session.state(), SessionState::kServing);
  EXPECT_TRUE(util::starts_with(session.handle_line("STATUS"), "OK"));
}

TEST(Session, ShutdownCloses) {
  MockCore core;
  Session session(core, 1);
  session.handle_line("HELLO");
  EXPECT_TRUE(util::starts_with(session.handle_line("SHUTDOWN"), "OK"));
  EXPECT_TRUE(session.closed());
  EXPECT_TRUE(is_err(session.handle_line("STATUS"), kErrState));
}

}  // namespace
}  // namespace pjsb::serve
