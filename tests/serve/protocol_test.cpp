// Wire-protocol codec: request/response round trips and the
// diagnostics malformed lines produce. The same codec serves both
// sides of the socket, so these tests pin the grammar itself.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace pjsb::serve {
namespace {

TEST(ProtocolRequest, ParsesEveryVerb) {
  std::string error;
  EXPECT_EQ(parse_request("HELLO", &error)->verb, Verb::kHello);
  EXPECT_EQ(parse_request("AUTH secret", &error)->verb, Verb::kAuth);
  EXPECT_EQ(parse_request("SUBMIT 4 600", &error)->verb, Verb::kSubmit);
  EXPECT_EQ(parse_request("KILL 7", &error)->verb, Verb::kKill);
  EXPECT_EQ(parse_request("QUERY 7", &error)->verb, Verb::kQuery);
  EXPECT_EQ(parse_request("WHATIF 4 600", &error)->verb, Verb::kWhatIf);
  EXPECT_EQ(parse_request("STATUS", &error)->verb, Verb::kStatus);
  EXPECT_EQ(parse_request("SNAPSHOT /tmp/x", &error)->verb,
            Verb::kSnapshot);
  EXPECT_EQ(parse_request("RESUME /tmp/x", &error)->verb, Verb::kResume);
  EXPECT_EQ(parse_request("DRAIN", &error)->verb, Verb::kDrain);
  EXPECT_EQ(parse_request("SHUTDOWN", &error)->verb, Verb::kShutdown);
}

TEST(ProtocolRequest, SubmitPositionalsAndOptions) {
  std::string error;
  const auto request = parse_request(
      "SUBMIT 8 3600 at=100 runtime=1800 id=42 user=3", &error);
  ASSERT_TRUE(request) << error;
  EXPECT_EQ(request->procs, 8);
  EXPECT_EQ(request->estimate, 3600);
  EXPECT_EQ(request->at, 100);
  EXPECT_EQ(request->runtime, 1800);
  EXPECT_EQ(request->id, 42);
  EXPECT_EQ(request->user, 3);
}

TEST(ProtocolRequest, SubmitDefaults) {
  std::string error;
  const auto request = parse_request("SUBMIT 2 60", &error);
  ASSERT_TRUE(request) << error;
  EXPECT_FALSE(request->at.has_value());
  EXPECT_FALSE(request->runtime.has_value());
  EXPECT_FALSE(request->id.has_value());
  EXPECT_EQ(request->user, -1);
}

TEST(ProtocolRequest, WhatIfOptions) {
  std::string error;
  const auto request =
      parse_request("WHATIF 4 600 offset=30 --simulate", &error);
  ASSERT_TRUE(request) << error;
  EXPECT_EQ(request->procs, 4);
  EXPECT_EQ(request->estimate, 600);
  EXPECT_EQ(request->offset, 30);
  EXPECT_TRUE(request->simulate);
}

TEST(ProtocolRequest, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_request("", &error));
  EXPECT_FALSE(parse_request("FROBNICATE", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_request("SUBMIT", &error));
  EXPECT_FALSE(parse_request("SUBMIT x 600", &error));
  EXPECT_FALSE(parse_request("SUBMIT 0 600", &error));
  EXPECT_FALSE(parse_request("SUBMIT 4 0", &error));
  EXPECT_FALSE(parse_request("SUBMIT 4 600 at=-1", &error));
  EXPECT_FALSE(parse_request("SUBMIT 4 600 bogus=1", &error));
  EXPECT_FALSE(parse_request("KILL", &error));
  EXPECT_FALSE(parse_request("KILL abc", &error));
  EXPECT_FALSE(parse_request("WHATIF 4 600 --bogus", &error));
  EXPECT_FALSE(parse_request("SNAPSHOT", &error));
  // Times above sim::kMaxTime (2^40 s), each refused naming its field.
  const std::string over = std::to_string(sim::kMaxTime + 1);
  for (const auto& [line, field] :
       std::vector<std::pair<std::string, std::string>>{
           {"SUBMIT 4 " + over, "estimate"},
           {"SUBMIT 4 600 at=9223372036854775000", "at="},
           {"SUBMIT 4 600 runtime=" + over, "runtime="},
           {"WHATIF 4 " + over, "estimate"},
           {"WHATIF 4 600 offset=9223372036854775807 --simulate",
            "offset="}}) {
    EXPECT_FALSE(parse_request(line, &error)) << line;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  // The bound itself is a valid time.
  const std::string bound = std::to_string(sim::kMaxTime);
  EXPECT_TRUE(parse_request("SUBMIT 4 " + bound + " at=" + bound +
                                " runtime=" + bound,
                            &error))
      << error;
  EXPECT_TRUE(parse_request("WHATIF 4 " + bound + " offset=" + bound, &error))
      << error;
}

TEST(ProtocolRequest, ErrorIsClearedBetweenCalls) {
  std::string error;
  EXPECT_FALSE(parse_request("FROBNICATE", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(parse_request("STATUS", &error));
  EXPECT_TRUE(error.empty());
}

TEST(ProtocolRequest, SerializeParseRoundTrip) {
  Request request;
  request.verb = Verb::kSubmit;
  request.procs = 16;
  request.estimate = 7200;
  request.at = 500;
  request.runtime = 900;
  request.id = 9;
  request.user = 2;
  std::string error;
  const auto back = parse_request(serialize_request(request), &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(back->procs, 16);
  EXPECT_EQ(back->estimate, 7200);
  EXPECT_EQ(back->at, 500);
  EXPECT_EQ(back->runtime, 900);
  EXPECT_EQ(back->id, 9);
  EXPECT_EQ(back->user, 2);

  Request whatif;
  whatif.verb = Verb::kWhatIf;
  whatif.procs = 3;
  whatif.estimate = 60;
  whatif.offset = 10;
  whatif.simulate = true;
  const auto whatif_back =
      parse_request(serialize_request(whatif), &error);
  ASSERT_TRUE(whatif_back) << error;
  EXPECT_EQ(whatif_back->offset, 10);
  EXPECT_TRUE(whatif_back->simulate);
}

TEST(ProtocolResponse, OkFieldsRoundTrip) {
  auto response = ok_response().with("id", std::int64_t(42)).with(
      "state", "queued");
  const auto line = serialize_response(response);
  EXPECT_EQ(line, "OK id=42 state=queued");
  std::string error;
  const auto back = parse_response(line, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->field_i64("id"), 42);
  EXPECT_EQ(back->field("state"), "queued");
  EXPECT_FALSE(back->field("missing").has_value());
  EXPECT_FALSE(back->field_i64("state").has_value());
}

TEST(ProtocolResponse, ErrorRoundTrip) {
  const auto line = serialize_response(
      error_response(kErrNotFound, "unknown job id"));
  EXPECT_EQ(line, "ERR not-found unknown job id");
  std::string error;
  const auto back = parse_response(line, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->code, kErrNotFound);
  EXPECT_EQ(back->message, "unknown job id");
}

TEST(ProtocolResponse, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse_response("", &error));
  EXPECT_FALSE(parse_response("MAYBE", &error));
  EXPECT_FALSE(parse_response("ERR", &error));  // code is mandatory
}

}  // namespace
}  // namespace pjsb::serve
