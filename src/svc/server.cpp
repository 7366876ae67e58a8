#include "svc/server.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/json_writer.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

std::string stats_json(JobScheduler& sched) {
  const JobScheduler::Stats js = sched.stats();
  const ResultCache::Stats cs = sched.cache().stats();
  std::string out = "{\"jobs\":{";
  out += "\"submitted\":" + json::number(js.submitted);
  out += ",\"cache_hits\":" + json::number(js.cache_hits);
  out += ",\"deduped\":" + json::number(js.deduped);
  out += ",\"executed\":" + json::number(js.executed);
  out += ",\"failed\":" + json::number(js.failed);
  out += "},\"cache\":{";
  out += "\"hits\":" + json::number(cs.hits);
  out += ",\"misses\":" + json::number(cs.misses);
  out += ",\"evictions\":" + json::number(cs.evictions);
  out += ",\"stores\":" + json::number(cs.stores);
  out += ",\"disk_hits\":" + json::number(cs.disk_hits);
  out += ",\"disk_stores\":" + json::number(cs.disk_stores);
  out += ",\"disk_corrupt\":" + json::number(cs.disk_corrupt);
  out += ",\"entries\":" + json::number(std::uint64_t(sched.cache().size()));
  // Numeric provenance: the canonicalization epoch behind every cache key.
  out += "},\"canonical_epoch\":" + json::number(std::uint64_t(kCanonicalEpoch));
  out.push_back('}');
  return out;
}

}  // namespace

std::string response_head(const std::string& id_json, bool ok) {
  std::string out = "{\"v\":2,\"id\":";
  out += id_json;
  out += ok ? ",\"ok\":true" : ",\"ok\":false";
  return out;
}

Response make_unavailable_response(const std::string& id_json, std::string_view message,
                                   double retry_after_ms) {
  Response r;
  r.ok = false;
  r.line = response_head(id_json, /*ok=*/false);
  r.line += ",\"error\":{\"code\":\"unavailable\",\"message\":";
  r.line += json::quoted(message);
  r.line += ",\"retry_after_ms\":";
  r.line += json::number(retry_after_ms);
  r.line += "}}";
  return r;
}

Response make_error_response(const std::string& id_json, ErrorCode code,
                             std::string_view message, std::size_t offset) {
  Response r;
  r.ok = false;
  r.line = response_head(id_json, /*ok=*/false);
  r.line += ",\"error\":{\"code\":";
  r.line += json::quoted(error_code_name(code));
  r.line += ",\"message\":";
  r.line += json::quoted(message);
  if (offset != kNoOffset) r.line += ",\"offset\":" + json::number(std::uint64_t(offset));
  r.line += "}}";
  return r;
}

Response make_result_response(const ParsedRequest& req, std::string_view result_json) {
  Response r;
  r.ok = true;
  r.line = response_head(req.id_json, /*ok=*/true);
  r.line += ",\"result\":";
  r.line += result_json;
  r.line += "}";
  return r;
}

Response make_analysis_response(const ParsedRequest& req, bool cached, bool deduped,
                                const Hash128& key, std::string_view payload) {
  return make_analysis_response(req.id_json, cached, deduped, key, payload);
}

Response make_analysis_response(const std::string& id_json, bool cached, bool deduped,
                                const Hash128& key, std::string_view payload) {
  Response r;
  r.ok = true;
  r.line = response_head(id_json, /*ok=*/true);
  r.line += ",\"cached\":";
  r.line += cached ? "true" : "false";
  r.line += ",\"deduped\":";
  r.line += deduped ? "true" : "false";
  r.line += ",\"key\":";
  r.line += json::quoted(key.hex());
  r.line += ",\"result\":";
  r.line += payload;
  r.line += "}";
  return r;
}

ServerSession::ServerSession(ResultCache& cache, runtime::ThreadPool& pool)
    : sched_(cache, pool) {}

std::optional<Response> ServerSession::parse_line(const std::string& line,
                                                 ParsedRequest* req) {
  try {
    const JsonValue doc = json_parse(line);
    try {
      *req = parse_request(doc);
      return std::nullopt;
    } catch (const RequestError& e) {
      // The id (when readable) is still echoed so the failure is routable.
      std::string id = "null";
      if (doc.is_object()) {
        if (const JsonValue* id_field = doc.find("id")) {
          if (id_field->is_string()) id = json::quoted(id_field->as_string());
          if (id_field->is_number() && std::isfinite(id_field->as_number()))
            id = json::number(id_field->as_number());
        }
      }
      return make_error_response(id, e.code(), e.what());
    }
  } catch (const JsonParseError& e) {
    return make_error_response("null", ErrorCode::kParseError, e.what(), e.offset());
  } catch (const std::exception& e) {
    return make_error_response("null", ErrorCode::kParseError, e.what());
  } catch (...) {
    return make_error_response("null", ErrorCode::kParseError, "unknown parse failure");
  }
}

Response ServerSession::respond_control(const ParsedRequest& req) {
  if (req.kind == "ping") return make_result_response(req, "{\"pong\":true}");
  if (req.kind == "stats") return make_result_response(req, stats_json(sched_));
  // cancel with no connection-level pending state: nothing to cancel. The
  // blocking transports answer every request before reading the next, so
  // by construction no earlier request is still in flight.
  return make_result_response(
      req, "{\"cancelled\":false,\"target\":" + req.cancel_target + "}");
}

Response ServerSession::handle_line(const std::string& line) {
  ParsedRequest req;
  if (std::optional<Response> err = parse_line(line, &req)) return *err;
  if (!is_analysis_kind(req.kind)) return respond_control(req);
  try {
    const Request& r = req.request;
    const Hash128 key = request_key(r);
    const JobScheduler::Outcome outcome =
        sched_.submit(JobScheduler::Job{key, [r] { return execute_request(r); },
                                        req.priority});
    const std::string payload = sched_.await(outcome);
    return make_analysis_response(req, outcome.cache_hit, outcome.deduped, key, payload);
  } catch (const std::exception& e) {
    return make_error_response(req.id_json, ErrorCode::kExecFailed, e.what());
  } catch (...) {
    return make_error_response(req.id_json, ErrorCode::kExecFailed,
                               "unknown execution failure");
  }
}

void ServerSession::submit_async(const ParsedRequest& req,
                                 std::function<void(Response)> done) {
  // Keying can fail (the netlist is parsed to canonicalize it); that is a
  // synchronous structured error, same as a failed execution.
  Hash128 key;
  try {
    key = request_key(req.request);
  } catch (const std::exception& e) {
    done(make_error_response(req.id_json, ErrorCode::kExecFailed, e.what()));
    return;
  }
  const Request r = req.request;
  // `req` is dead by the time a worker completes; copy what the formatter
  // needs into the completion.
  sched_.submit_async(
      JobScheduler::Job{key, [r] { return execute_request(r); }, req.priority},
      [id_json = req.id_json, key, done = std::move(done)](
          const std::string* payload, std::exception_ptr err, bool cached,
          bool deduped) {
        if (err) {
          std::string what = "unknown execution failure";
          try {
            std::rethrow_exception(err);
          } catch (const std::exception& e) {
            what = e.what();
          } catch (...) {
          }
          done(make_error_response(id_json, ErrorCode::kExecFailed, what));
          return;
        }
        done(make_analysis_response(id_json, cached, deduped, key, *payload));
      });
}

void ServerSession::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF client
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    out << handle_line(line).line << '\n' << std::flush;
  }
}

}  // namespace rfmix::svc
