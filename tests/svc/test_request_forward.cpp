// The router's forward path: forward_request_line hands a worker the
// client's own line with the router's ticket spliced over the client's id
// (or inserted when there was none). The worker must parse exactly the
// request the router admitted and keyed: same kind, priority, deadline and
// canonical bytes, under the ticket id. Forwarding a forwarded line is a
// fixed point, which is what makes replay after a worker death safe.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "request_corpus.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"

namespace rfmix::svc {
namespace {

ParsedRequest parsed(const std::string& line) {
  ParsedRequest req;
  const std::optional<Response> err = ServerSession::parse_line(line, &req);
  EXPECT_FALSE(err) << line << " -> " << err->line;
  return req;
}

/// Every line the router would forward: valid analysis requests whose key
/// can be computed (an un-keyable netlist is answered exec_failed in place).
std::vector<std::string> forwardable_lines() {
  std::vector<std::string> lines;
  for (const std::string& line : request_corpus()) {
    ParsedRequest req;
    if (ServerSession::parse_line(line, &req)) continue;
    if (!is_analysis_kind(req.kind)) continue;
    try {
      (void)request_key(req.request);
    } catch (const std::exception&) {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

TEST(RequestForward, SplicesTicketIdKeepingCanonicalBytes) {
  std::vector<std::string> lines = forwardable_lines();
  ASSERT_GE(lines.size(), 8u);
  const std::string params =
      R"("params":{"netlist":"V1 a 0 DC 1\nR1 a 0 50\n.end"})";
  lines.push_back(R"({"v":2,"kind":"op",)" + params + "}");
  lines.push_back(R"({"v":2,"id":null,"kind":"op",)" + params + "}");
  lines.push_back(R"({"v":2,"id":"t\"a\\bé\n","kind":"op",)" + params + "}");
  lines.push_back(R"({"id":"x","v":2,"id":7,"kind":"op",)" + params + "}");
  lines.push_back(" \t {\n\"v\" : 2 , \"id\" :  5 ,\"kind\":\"op\"," + params + " }  ");
  for (const std::string& line : lines) {
    const ParsedRequest req = parsed(line);
    const std::string fwd = forward_request_line(line, req, "42");
    const ParsedRequest got = parsed(fwd);
    EXPECT_EQ(got.id_json, "42") << fwd;
    EXPECT_EQ(got.kind, req.kind) << fwd;
    EXPECT_EQ(got.priority, req.priority) << fwd;
    EXPECT_EQ(got.timeout_ms, req.timeout_ms) << fwd;
    EXPECT_EQ(request_canonical(got.request), request_canonical(req.request)) << fwd;
    EXPECT_EQ(forward_request_line(fwd, got, "42"), fwd) << line;
  }
}

TEST(RequestForward, PreservesTimeoutAndPriority) {
  const std::string line =
      R"({"v":2,"id":1,"kind":"op","priority":-3,"timeout_ms":1500,"params":{"netlist":"V1 a 0 DC 1\nR1 a 0 50\n.end"}})";
  const ParsedRequest got = parsed(forward_request_line(line, parsed(line), "9"));
  EXPECT_EQ(got.id_json, "9");
  EXPECT_EQ(got.priority, -3);
  EXPECT_EQ(got.timeout_ms, 1500.0);
}

TEST(RequestForward, SplicesOnlyTheFirstIdValueOrInsertsAfterTheBrace) {
  // The splice depends only on the first "id" member's value range and on
  // the first '{': whitespace, key order and later members stay as sent.
  const auto forward = [](const std::string& line) {
    return forward_request_line(line, parsed(line), "42");
  };
  EXPECT_EQ(forward(R"(  {"v":2,"id" : "a\"b" ,"kind":"ping"})"),
            R"(  {"v":2,"id" : 42 ,"kind":"ping"})");
  EXPECT_EQ(forward(R"({"id":1,"v":2,"id":2,"kind":"ping"})"),
            R"({"id":42,"v":2,"id":2,"kind":"ping"})");
  EXPECT_EQ(forward(R"( {"v":2,"kind":"ping"})"), R"( {"id":42,"v":2,"kind":"ping"})");
}

}  // namespace
}  // namespace rfmix::svc
