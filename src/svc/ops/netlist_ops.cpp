// Netlist analysis ops: `op` (DC operating point) and `ac` (small-signal
// sweep probed at one node pair). Both take a SPICE deck as text; their
// cache keys hash the *elaborated* canonical circuit, so two spellings of
// the same physics share an entry.
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/json_writer.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"
#include "svc/ops/registrations.hpp"
#include "svc/ops/shared.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

std::string execute_op(const Request& req) {
  spice::Circuit ckt = spice::parse_netlist(req.netlist);
  const spice::Solution op = spice::dc_operating_point(ckt);
  // Node names sorted so the payload bytes are independent of declaration
  // order, matching the key's normalization.
  std::map<std::string, double> nodes;
  for (spice::NodeId n = 1; n < ckt.num_nodes(); ++n) nodes[ckt.node_name(n)] = op.v(n);
  std::string out = "{\"analysis\":\"op\",\"nodes\":{";
  bool first = true;
  for (const auto& [name, v] : nodes) {
    if (!first) out.push_back(',');
    first = false;
    out += json::quoted(name);
    out.push_back(':');
    out += json::number(v);
  }
  out += "},\"power_w\":";
  out += json::number(spice::total_dissipated_power(ckt, op));
  out.push_back('}');
  return out;
}

std::string execute_ac(const Request& req) {
  spice::Circuit ckt = spice::parse_netlist(req.netlist);
  const spice::NodeId probe = ckt.find_node(req.ac.probe);
  const spice::NodeId ref =
      req.ac.probe_ref.empty() ? spice::kGround : ckt.find_node(req.ac.probe_ref);
  const spice::Solution op = spice::dc_operating_point(ckt);
  const AcSpec& ac = req.ac;
  const spice::AcResult res =
      spice::ac_sweep(ckt, op, freq_grid(ac.f_start_hz, ac.f_stop_hz, ac.points, ac.log_scale));
  std::string out = "{\"analysis\":\"ac\"";
  append_ac_probe(out, ac.probe, res, probe, ref);
  out.push_back('}');
  return out;
}

}  // namespace

std::vector<double> freq_grid(double f_start_hz, double f_stop_hz, int points,
                              bool log_scale) {
  return log_scale ? spice::log_space(f_start_hz, f_stop_hz, points)
                   : spice::lin_space(f_start_hz, f_stop_hz, points);
}

void append_number_array(std::string& out, std::string_view name,
                         const std::vector<double>& values) {
  out += ",\"";
  out += name;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json::number(values[i]);
  }
  out.push_back(']');
}

void append_ac_probe(std::string& out, std::string_view probe_name,
                     const spice::AcResult& res, spice::NodeId probe, spice::NodeId ref) {
  out += ",\"probe\":";
  out += json::quoted(probe_name);
  append_number_array(out, "freqs_hz", res.freqs_hz);
  std::vector<double> re, im;
  for (std::size_t i = 0; i < res.freqs_hz.size(); ++i) {
    re.push_back(res.vd(i, probe, ref).real());
    im.push_back(res.vd(i, probe, ref).imag());
  }
  append_number_array(out, "real", re);
  append_number_array(out, "imag", im);
}

void check_freq_grid(double f_start_hz, double f_stop_hz, int points, bool log_scale,
                     const std::string& what) {
  if (points < 2 || points > 4096)
    throw std::invalid_argument(what + " points must be in [2, 4096]");
  if (!(f_start_hz > 0.0) || !(f_stop_hz > f_start_hz))
    throw std::invalid_argument(what + " requires 0 < f_start_hz < f_stop_hz");
  // +inf (a JSON 1e999) passes the order check; it would sweep to inf.
  if (!std::isfinite(f_stop_hz))
    throw std::invalid_argument(what + " requires a finite f_stop_hz");
  // lin_space computes (f_stop - f_start) * i for i up to points - 1; near
  // the top of the double range that overflows to inf, then NaN.
  if (!log_scale && !std::isfinite((f_stop_hz - f_start_hz) * (points - 1)))
    throw std::invalid_argument(
        what + " linear grid requires a finite (f_stop_hz - f_start_hz) * (points - 1)");
}

Schema make_ac_object_schema(AcSpec& (*get)(Request&)) {
  Schema s("ac");
  s.number("f_start_hz", [get](double v, Request& r) { get(r).f_start_hz = v; });
  s.number("f_stop_hz", [get](double v, Request& r) { get(r).f_stop_hz = v; });
  s.integer("points", [get](double v, Request& r) { get(r).points = int(v); });
  s.boolean("log_scale", [get](bool v, Request& r) { get(r).log_scale = v; });
  s.string("probe", [get](const std::string& v, Request& r) { get(r).probe = v; });
  s.string("probe_ref",
           [get](const std::string& v, Request& r) { get(r).probe_ref = v; });
  return s;
}

void register_netlist_ops(OpRegistry& r) {
  OpSpec op;
  op.name = "op";
  op.analysis = true;
  op.kind = RequestKind::kOp;
  op.params.string("netlist",
                   [](const std::string& v, Request& req) { req.netlist = v; });
  op.params.required();
  op.canonical = [](CanonicalWriter& w, const Request& req) {
    const spice::Circuit ckt = spice::parse_netlist(req.netlist);
    append_canonical_circuit(w, ckt);
    w.begin_record("analysis");
    w.field("kind", "op");
    w.end_record();
  };
  op.execute = execute_op;
  r.register_op(std::move(op));

  OpSpec ac;
  ac.name = "ac";
  ac.analysis = true;
  ac.kind = RequestKind::kAc;
  ac.params.string("netlist",
                   [](const std::string& v, Request& req) { req.netlist = v; });
  ac.params.required();
  {
    const Schema sub = make_ac_object_schema(+[](Request& r) -> AcSpec& { return r.ac; });
    ac.params.object("ac", [sub](const JsonValue& v, Request& req) {
      sub.apply(v, req, /*strict=*/true);
    });
    ac.params.required("ac request requires an 'ac' object");
  }
  // Cross-field checks before keying: a bad probe or grid is bad_params,
  // never a sweep of unbounded size.
  ac.finish = [](Request& q) {
    if (q.ac.probe.empty()) throw std::invalid_argument("ac request requires a probe node");
    check_freq_grid(q.ac.f_start_hz, q.ac.f_stop_hz, q.ac.points, q.ac.log_scale, "ac");
  };
  ac.canonical = [](CanonicalWriter& w, const Request& req) {
    const spice::Circuit ckt = spice::parse_netlist(req.netlist);
    append_canonical_circuit(w, ckt);
    w.begin_record("analysis");
    w.field("kind", "ac");
    w.field("f_start_hz", req.ac.f_start_hz);
    w.field("f_stop_hz", req.ac.f_stop_hz);
    w.field("points", req.ac.points);
    w.field("scale", req.ac.log_scale ? "log" : "lin");
    w.field("probe", req.ac.probe);
    w.field("probe_ref", req.ac.probe_ref);
    w.end_record();
  };
  ac.execute = execute_ac;
  r.register_op(std::move(ac));
}

}  // namespace rfmix::svc
