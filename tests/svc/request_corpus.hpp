// The request-line corpus shared by the transport fuzz suites
// (test_request_fuzz.cpp) and the forward-path unit tests
// (test_request_forward.cpp): valid requests of every analysis kind, id
// shapes the router must splice (none, escaped string, duplicate keys),
// control requests, and malformed, boundary and adversarial lines.
#pragma once

#include <string>
#include <vector>

namespace rfmix::svc {

inline std::vector<std::string> request_corpus() {
  std::vector<std::string> lines;
  // Valid v2 analysis requests (distinct content keys).
  lines.push_back(
      R"({"v":2,"id":1,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out 1000\nR2 out 0 1000\n.end"}})");
  lines.push_back(
      R"({"v":2,"id":"two","kind":"op","params":{"netlist":"V1 in 0 DC 2\nR1 in out 1000\nR2 out 0 2000\n.end"}})");
  lines.push_back(
      R"({"v":2,"id":3,"kind":"ac","priority":5,"params":{"netlist":"V1 in 0 DC 0 AC 1\nR1 in out 1000\nC1 out 0 1e-9\n.end","ac":{"f_start_hz":10.0,"f_stop_hz":1e6,"points":16,"log_scale":true,"probe":"out"}}})");
  // One line per remaining analysis kind, so the router forwards each op:
  // an escaped string id with priority and timeout, and a small gen.
  lines.push_back(
      R"({"v":2,"id":16,"kind":"mixer_metric","params":{"metric":"gain_db","f_rf_hz":2.405e9,"config":{"mode":"passive","tia_rf":2500}}})");
  lines.push_back(
      R"({"v":2,"id":"np\"1\\\u00e9","kind":"npath_zin","priority":2,"timeout_ms":60000,"params":{"phases":4,"harmonics":8,"samples":64,"f_lo_hz":1e9,"sweep":{"f_start_hz":9e8,"f_stop_hz":1.1e9,"points":3}}})");
  lines.push_back(
      R"({"v":2,"id":18,"kind":"gen","params":{"template":"ladder","depth":2,"analysis":"ac","ac":{"f_start_hz":1e3,"f_stop_hz":1e6,"points":4}}})");
  // No id (the router inserts its ticket), and duplicate "id" keys after
  // leading whitespace (the first one is the id; the router splices over
  // it).
  lines.push_back(
      R"({"v":2,"kind":"op","params":{"netlist":"V1 in 0 DC 3\nR1 in out 1000\nR2 out 0 3000\n.end"}})");
  lines.push_back(
      R"(  {"id":"first","v":2,"id":19,"kind":"op","params":{"netlist":"V1 in 0 DC 4\nR1 in out 1000\nR2 out 0 4000\n.end"}})");
  // Repeat of an earlier key: exercises the cached-flag path in order.
  lines.push_back(
      R"({"v":2,"id":4,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out 1000\nR2 out 0 1000\n.end"}})");
  // Control requests; the version-less one is rejected.
  lines.push_back(R"({"v":2,"id":5,"kind":"ping"})");
  lines.push_back(R"({"id":6,"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":7,"kind":"cancel","params":{"target":1}})");
  // Malformed JSON of assorted shapes.
  lines.push_back("{nope");
  lines.push_back(R"({"v":2,"id":8,)");
  lines.push_back("[1,2,3]");
  lines.push_back("\"just a string\"");
  lines.push_back("{}");
  // Envelope violations: unknown field, unknown kind, bad version, bad
  // params, wrong types.
  lines.push_back(R"({"v":2,"id":9,"kind":"ping","bogus":1})");
  lines.push_back(R"({"v":2,"id":10,"kind":"frobnicate"})");
  lines.push_back(R"({"v":3,"id":11,"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":12,"kind":"op","params":{"netlist":42}})");
  lines.push_back(R"({"v":2,"id":13,"kind":"op"})");
  lines.push_back(R"({"v":2,"id":{},"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":14,"kind":"ac","params":{"netlist":"x","ac":{"f_start_hz":-1}}})");
  // Escapes and unicode in strings that land in responses.
  lines.push_back(R"({"v":2,"id":"q\"uote\\\n","kind":"ping"})");
  lines.push_back(R"({"v":2,"id":"é€","kind":"ping"})");
  // Deep nesting and a long-but-legal line.
  lines.push_back(R"({"v":2,"id":15,"kind":"op","params":{"netlist":")" +
                  std::string(2000, 'x') + R"("}})");
  return lines;
}

}  // namespace rfmix::svc
