// The gen op: programmatic netlist generation served through
// rfmixd. A request names a template (src/gen) and its parameters; the
// server renders the deck and either returns it ("analysis":"netlist") or
// pipes it straight into a DC op, AC sweep, or per-element N-path Zin
// analysis. The cache key hashes the (template, parameters) pair — never
// the expanded deck — so a 100k-device array request keys in microseconds,
// and flat vs hierarchical rendering of the same array is the only
// parameter that distinguishes otherwise-identical requests (the netlist
// payload differs; the solved results are bit-identical by construction).
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gen/templates.hpp"
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

std::string execute_gen(const Request& req) {
  const GenRequestSpec& g = req.gen;
  const std::string deck = gen::render_netlist(g.spec);
  const std::size_t devices = gen::device_count(g.spec);
  const std::string head = "{\"analysis\":\"gen\",\"template\":" +
                           json::quoted(g.spec.template_id) +
                           ",\"devices\":" + json::number(double(devices));

  if (g.analysis == "netlist") {
    std::string out = head;
    out += ",\"hierarchical\":";
    out += g.spec.hierarchical ? "true" : "false";
    out += ",\"netlist\":";
    out += json::quoted(deck);
    out.push_back('}');
    return out;
  }

  if (g.analysis == "npath_zin") {
    // Per-element front-end sweep: each element maps to its own
    // (mismatched) NpathSpec, and the payload reports the across-array
    // statistics a beamforming designer actually wants — where each
    // element's impedance peak landed and how far the array spreads.
    const std::vector<double> freqs =
        freq_grid(g.f_start_hz, g.f_stop_hz, g.points, g.log_scale);
    std::vector<double> f_peak, q, zin_peak;
    for (int i = 0; i < g.spec.elements; ++i) {
      const npath::ZinSweep sw =
          npath::zin_sweep(gen::element_npath_spec(g.spec, i), freqs);
      f_peak.push_back(sw.summary.f_peak_hz);
      q.push_back(sw.summary.q);
      zin_peak.push_back(sw.summary.zin_peak_ohm);
    }
    double mn = f_peak[0], mx = f_peak[0], sum = 0.0;
    for (const double f : f_peak) {
      mn = std::min(mn, f);
      mx = std::max(mx, f);
      sum += f;
    }
    std::string out = head;
    out += ",\"elements\":" + json::number(double(g.spec.elements));
    append_number_array(out, "f_peak_hz", f_peak);
    append_number_array(out, "q", q);
    append_number_array(out, "zin_peak_ohm", zin_peak);
    out += ",\"spread\":{\"f_peak_min_hz\":" + json::number(mn);
    out += ",\"f_peak_max_hz\":" + json::number(mx);
    out += ",\"f_peak_mean_hz\":" + json::number(sum / double(f_peak.size()));
    out += "}}";
    return out;
  }

  // op / ac: elaborate the deck once and solve.
  spice::Circuit ckt = spice::parse_netlist(deck);
  const spice::Solution dc = spice::dc_operating_point(ckt);

  if (g.analysis == "op") {
    // A 100k-node voltage map would dwarf the result it serves; report
    // the template's probe nodes plus the whole-circuit aggregates.
    std::string out = head;
    out += ",\"nodes\":" + json::number(double(ckt.num_nodes() - 1));
    out += ",\"power_w\":" + json::number(spice::total_dissipated_power(ckt, dc));
    out += ",\"probes\":{";
    bool first = true;
    for (const std::string& name : gen::probe_nodes(g.spec)) {
      if (!first) out.push_back(',');
      first = false;
      out += json::quoted(name);
      out.push_back(':');
      out += json::number(dc.v(ckt.find_node(name)));
    }
    out += "}}";
    return out;
  }

  // g.analysis == "ac" (finish() guarantees the probe is set).
  const spice::NodeId probe = ckt.find_node(g.ac.probe);
  const spice::NodeId ref =
      g.ac.probe_ref.empty() ? spice::kGround : ckt.find_node(g.ac.probe_ref);
  const spice::AcResult res = spice::ac_sweep(
      ckt, dc, freq_grid(g.ac.f_start_hz, g.ac.f_stop_hz, g.ac.points, g.ac.log_scale));
  std::string out = head;
  append_ac_probe(out, g.ac.probe, res, probe, ref);
  out.push_back('}');
  return out;
}

}  // namespace

void register_gen_op(OpRegistry& r) {
  OpSpec op;
  op.name = "gen";
  op.analysis = true;
  op.kind = RequestKind::kGen;
  op.strict_params = true;
  op.params = Schema("gen");
  op.params.string("template", [](const std::string& v, Request& q) {
    q.gen.spec.template_id = v;
  });
  op.params.required();
  op.params.integer("elements", [](double v, Request& q) { q.gen.spec.elements = int(v); });
  op.params.range(1, 65536);
  op.params.integer("paths", [](double v, Request& q) { q.gen.spec.paths = int(v); });
  op.params.range(1, 32);
  op.params.integer("sections", [](double v, Request& q) { q.gen.spec.sections = int(v); });
  op.params.range(1, 64);
  op.params.integer("depth", [](double v, Request& q) { q.gen.spec.depth = int(v); });
  op.params.range(0, 18);
  op.params.integer("seed", [](double v, Request& q) {
    q.gen.spec.seed = static_cast<std::uint64_t>(v);
  });
  op.params.range(0, 2147483647);
  op.params.number("mismatch", [](double v, Request& q) { q.gen.spec.mismatch = v; });
  op.params.boolean("hierarchical", [](bool v, Request& q) { q.gen.spec.hierarchical = v; });
  op.params.number("r_source", [](double v, Request& q) { q.gen.spec.r_source = v; });
  op.params.number("switch_ron", [](double v, Request& q) { q.gen.spec.switch_ron = v; });
  op.params.number("zbb_r", [](double v, Request& q) { q.gen.spec.zbb_r = v; });
  op.params.number("zbb_c", [](double v, Request& q) { q.gen.spec.zbb_c = v; });
  op.params.number("f_lo_hz", [](double v, Request& q) { q.gen.spec.f_lo_hz = v; });
  op.params.string("analysis", [](const std::string& v, Request& q) { q.gen.analysis = v; });
  {
    const Schema sub =
        make_ac_object_schema(+[](Request& q) -> AcSpec& { return q.gen.ac; });
    op.params.object("ac", [sub](const JsonValue& v, Request& q) {
      sub.apply(v, q, /*strict=*/true);
    });
  }
  {
    Schema sweep("sweep");
    sweep.number("f_start_hz", [](double v, Request& q) { q.gen.f_start_hz = v; });
    sweep.number("f_stop_hz", [](double v, Request& q) { q.gen.f_stop_hz = v; });
    sweep.integer("points", [](double v, Request& q) { q.gen.points = int(v); });
    sweep.boolean("log_scale", [](bool v, Request& q) { q.gen.log_scale = v; });
    op.params.object("sweep", [sweep](const JsonValue& v, Request& q) {
      sweep.apply(v, q, /*strict=*/true);
    });
  }
  op.finish = [](Request& q) {
    GenRequestSpec& g = q.gen;
    gen::validate(g.spec);
    const bool known = g.analysis == "netlist" || g.analysis == "op" ||
                       g.analysis == "ac" || g.analysis == "npath_zin";
    if (!known)
      throw std::invalid_argument("unknown gen analysis '" + g.analysis +
                                  "' (expected netlist, op, ac, or npath_zin)");
    if (g.analysis == "ac") {
      // Normalize the probe before keying: an empty probe means "the
      // template's first probe node", and the canonical record must name
      // the node it resolves to.
      if (g.ac.probe.empty()) g.ac.probe = gen::probe_nodes(g.spec).front();
      check_freq_grid(g.ac.f_start_hz, g.ac.f_stop_hz, g.ac.points, g.ac.log_scale, "gen ac");
    }
    if (g.analysis == "npath_zin") {
      check_freq_grid(g.f_start_hz, g.f_stop_hz, g.points, g.log_scale, "gen sweep");
      if (g.spec.elements > 256)
        throw std::invalid_argument(
            "gen npath_zin analysis supports at most 256 elements");
      // Fails early (bad_params) if the template has no N-path mapping or
      // the derived clock set is unrealizable.
      npath::validate(gen::element_npath_spec(g.spec, 0));
    }
  };
  op.canonical = [](CanonicalWriter& w, const Request& req) {
    // The whole point of the op: the key hashes the generator parameters,
    // not the rendered deck. `hierarchical` IS part of the key — the
    // netlist payload differs between renderings even though solved
    // results do not.
    const gen::GenSpec& s = req.gen.spec;
    w.begin_record("gen");
    w.field("template", s.template_id);
    w.field("elements", s.elements);
    w.field("paths", s.paths);
    w.field("sections", s.sections);
    w.field("depth", s.depth);
    w.field("seed", s.seed);
    w.field("mismatch", s.mismatch);
    w.field("hierarchical", s.hierarchical ? 1 : 0);
    w.field("r_source", s.r_source);
    w.field("switch_ron", s.switch_ron);
    w.field("zbb_r", s.zbb_r);
    w.field("zbb_c", s.zbb_c);
    w.field("f_lo_hz", s.f_lo_hz);
    w.end_record();
    w.begin_record("analysis");
    w.field("kind", "gen");
    w.field("analysis", req.gen.analysis);
    if (req.gen.analysis == "ac") {
      w.field("f_start_hz", req.gen.ac.f_start_hz);
      w.field("f_stop_hz", req.gen.ac.f_stop_hz);
      w.field("points", req.gen.ac.points);
      w.field("scale", req.gen.ac.log_scale ? "log" : "lin");
      w.field("probe", req.gen.ac.probe);
      w.field("probe_ref", req.gen.ac.probe_ref);
    } else if (req.gen.analysis == "npath_zin") {
      w.field("f_start_hz", req.gen.f_start_hz);
      w.field("f_stop_hz", req.gen.f_stop_hz);
      w.field("points", req.gen.points);
      w.field("scale", req.gen.log_scale ? "log" : "lin");
    }
    w.end_record();
  };
  op.execute = execute_gen;
  r.register_op(std::move(op));
}

}  // namespace rfmix::svc
