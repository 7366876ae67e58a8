// Service requests: the unit of work the cache keys and the scheduler runs,
// plus the one place the wire protocol is parsed.
//
// A request is either a netlist analysis (DC operating point or AC sweep
// over a parsed SPICE deck) or a mixer metric query (conversion gain, DSB
// NF, IIP3 of the paper's mixer at a given configuration). request_key()
// maps a request to its content hash — same physics in, same key out,
// regardless of declaration order or float spelling (see canonical.hpp) —
// and execute_request() produces the canonical compact-JSON payload that
// gets cached and returned to clients byte-for-byte.
//
// parse_request() is the single entry point for the {"v":2,...} envelope
// (docs/service.md): the blocking stdin path, the poll(2) event loop, the
// router and the tests all parse through it, so a request means the same
// thing on every transport. Failures throw RequestError carrying a stable
// ErrorCode that clients can dispatch on.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/metrics.hpp"
#include "gen/templates.hpp"
#include "npath/zin.hpp"
#include "svc/hash.hpp"

namespace rfmix::svc {

class JsonValue;

enum class RequestKind {
  kOp,           // DC operating point of a netlist
  kAc,           // AC sweep of a netlist, probed at one node (pair)
  kMixerMetric,  // core::evaluate_metric over a MixerConfig
  kNpathZin,     // N-path mixer-first Zin/S11 sweep
  kGen,          // generated netlist (template + params), optionally piped
                 // into an op/ac/npath_zin analysis
};

struct AcSpec {
  double f_start_hz = 1e3;
  double f_stop_hz = 1e9;
  int points = 11;
  bool log_scale = true;     // log_space vs lin_space grid
  std::string probe;         // probed node name (required)
  std::string probe_ref;     // optional reference node: probe - probe_ref
};

/// Sweep grid for the npath_zin op: the NpathSpec names the front end, the
/// grid names the absolute frequencies Zin/S11 are evaluated at.
struct NpathSweepSpec {
  npath::NpathSpec spec;
  double f_start_hz = 5e8;
  double f_stop_hz = 1.5e9;
  int points = 21;
  bool log_scale = false;
};

/// The gen op: a template spec plus the analysis the generated circuit is
/// piped into. The cache key is derived from these parameters — never from
/// the expanded deck — so a 100k-device array request hashes in
/// microseconds and hits the same entry however it was rendered.
struct GenRequestSpec {
  gen::GenSpec spec;
  std::string analysis = "netlist";  // netlist | op | ac | npath_zin
  AcSpec ac;              // grid + probe for analysis == "ac" (probe
                          // defaults to the template's first probe node)
  double f_start_hz = 5e8;   // npath_zin sweep grid
  double f_stop_hz = 1.5e9;
  int points = 21;
  bool log_scale = false;
};

struct Request {
  RequestKind kind = RequestKind::kOp;
  std::string netlist;        // kOp / kAc
  AcSpec ac;                  // kAc
  core::MetricQuery metric;   // kMixerMetric
  NpathSweepSpec npath;       // kNpathZin
  GenRequestSpec gen;         // kGen
};

/// Full canonical byte string (version record included). Exposed so tests
/// can pin the normalization rules; hash128 of this is the cache key.
std::string request_canonical(const Request& req);

/// Content hash of the request — the cache / single-flight key.
Hash128 request_key(const Request& req);

/// Execute the request and serialize its result as one line of compact
/// JSON (no newlines). Deterministic: a given request always produces the
/// same bytes, so cached payloads are bit-identical to fresh runs. Throws
/// (ParseError, ConvergenceError, std::invalid_argument) on bad input.
std::string execute_request(const Request& req);

// ---------------------------------------------------------------------------
// Wire protocol (v2)
// ---------------------------------------------------------------------------

/// Stable error codes for the structured error object. The names are
/// wire format — never renumber or rename, only append.
enum class ErrorCode {
  kParseError,          // the line is not valid JSON
  kInvalidRequest,      // valid JSON, but not a usable envelope (not an
                        // object, bad id type, unknown envelope field)
  kUnsupportedVersion,  // "v" absent or not 2
  kUnknownKind,         // "kind" is not one this server implements
  kBadParams,           // the kind is known but its parameters are not
  kExecFailed,          // the analysis itself threw (netlist errors,
                        // convergence failures)
  kTimeout,             // the request's deadline passed before completion
  kCancelled,           // a cancel op removed the request before completion
  kUnavailable,         // no live worker can take the request (cluster
                        // degraded); the error object carries
                        // retry_after_ms as a backoff hint
};

/// The stable wire name of `code` (e.g. "parse_error").
std::string_view error_code_name(ErrorCode code);

/// Thrown by parse_request(); carries the structured code so the server
/// can answer with something machine-dispatchable.
class RequestError : public std::runtime_error {
 public:
  RequestError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One fully parsed request line. `request` is only meaningful for the
/// analysis kinds (op / ac / mixer_metric / npath_zin / gen);
/// `cancel_target` only for kind == "cancel".
struct ParsedRequest {
  std::string id_json = "null";  // client id re-serialized for echoing
  // Source byte range of the first "id" member's value in the parsed
  // line; empty when the client sent no id.
  std::size_t id_begin = 0;
  std::size_t id_end = 0;
  std::string kind;
  int priority = 0;           // higher drains first
  double timeout_ms = 0.0;    // <= 0 means no deadline
  Request request;
  std::string cancel_target;  // serialized id the cancel op targets
};

/// True for the kinds that run through the scheduler (op, ac,
/// mixer_metric) as opposed to being answered in place (ping, stats,
/// cancel).
bool is_analysis_kind(std::string_view kind);

/// Parse one request document into a ParsedRequest. Throws RequestError on
/// every failure; never partially succeeds.
ParsedRequest parse_request(const JsonValue& doc);

/// `line`, the text `req` was parsed from, with `id_json` spliced over the
/// value of its first "id" member, or inserted as the first member when
/// the client sent no id. The router forwards (and replays) this: a worker
/// parses exactly the bytes the router admitted and keyed, and forwarding
/// a forwarded line again is a fixed point.
std::string forward_request_line(std::string_view line, const ParsedRequest& req,
                                 std::string_view id_json);

/// The most forward_request_line adds to a line for a 64-bit ticket:
/// `"id":`, 20 digits and `,` when the client sent no id.
inline constexpr std::size_t kMaxForwardGrowth = 26;

/// Parse a mixer-config JSON object (field name -> number, "mode" ->
/// "active"/"passive") onto `config`. Unknown fields and type mismatches
/// throw RequestError(kBadParams) — a silently dropped field would make
/// two different requests collide on one cache key.
void apply_mixer_config(const JsonValue& obj, core::MixerConfig& config);

}  // namespace rfmix::svc
