#include "gen/templates.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/circuits.hpp"
#include "gen/netlist_builder.hpp"
#include "mathx/rng.hpp"

namespace rfmix::gen {

namespace {

// A template-design rule both renderings depend on: every node passed as
// an instance argument must already exist (be referenced by an earlier
// device card in the same scope) before the X-card. The elaborator
// resolves instance arguments eagerly, so a fresh node minted by an X-card
// would be created *before* the instance body's internals — a different
// node-id order than the flat rendering, hence different matrix
// permutation and different result bits. With the rule obeyed, flat and
// hierarchical renderings create nodes (and devices) in exactly the same
// order and solve bit-identically. Tests pin this for every template.

std::string itos(int v) { return std::to_string(v); }

bool has_caps(const GenSpec& s) { return s.zbb_c > 0.0; }

std::size_t slice_devices(const GenSpec& s) {
  // Per path: rsw + sections * (rsec [+ csec]) + rterm.
  const std::size_t per_section = has_caps(s) ? 2 : 1;
  return static_cast<std::size_t>(s.paths) *
         (2 + static_cast<std::size_t>(s.sections) * per_section);
}

/// One receiver-slice body: `paths` switched RC-ladder baseband branches
/// off the shared RF node. Used verbatim for the .subckt body (pre = "",
/// rf = "rf") and for the flat rendering (pre = "xe<i>.", rf = "rf<i>"),
/// which is what makes the two renderings card-for-card identical.
void emit_slice_body(NetlistBuilder& nl, std::string_view pre, std::string_view rf,
                     const GenSpec& s, const Value& ron, double rbb) {
  const Value rterm(rbb);
  const Value rsec(rbb / s.sections);
  const double csec_farads = has_caps(s) ? s.zbb_c / s.sections : 0.0;
  const Value csec(csec_farads);
  for (int p = 0; p < s.paths; ++p) {
    nl.resistor({pre, "rsw", p}, rf, {pre, "b", p, "_0"}, ron);
    for (int k = 0; k < s.sections; ++k) {
      nl.resistor({pre, "rsec", p, "_", k}, {pre, "b", p, "_", k},
                  {pre, "b", p, "_", k + 1}, rsec);
      if (csec_farads > 0.0)
        nl.capacitor({pre, "csec", p, "_", k}, {pre, "b", p, "_", k + 1}, "0", csec);
    }
    nl.resistor({pre, "rterm", p}, {pre, "b", p, "_", s.sections}, "0", rterm);
  }
}

std::string render_rx_array(const GenSpec& s) {
  NetlistBuilder nl;
  nl.comment("gen rx_array elements=" + itos(s.elements) + " paths=" +
             itos(s.paths) + " sections=" + itos(s.sections) +
             (s.hierarchical ? " hierarchical" : " flat"));
  const bool shared = s.mismatch <= 0.0;
  if (s.hierarchical) {
    if (shared) {
      nl.begin_subckt("slice", {"rf"});
      emit_slice_body(nl, "", "rf", s, s.switch_ron, s.zbb_r);
      nl.end_subckt();
    } else {
      for (int i = 0; i < s.elements; ++i) {
        const ElementDraw d = element_draw(s, i);
        nl.begin_subckt({"slice_", i}, {"rf"});
        emit_slice_body(nl, "", "rf", s, d.switch_ron, d.zbb_r);
        nl.end_subckt();
      }
    }
  }
  const Value vin(1.0), r_source(s.r_source);
  for (int i = 0; i < s.elements; ++i) {
    nl.vsource_dc({"vin_e", i}, {"ant", i}, "0", vin);
    nl.resistor({"rs_e", i}, {"ant", i}, {"rf", i}, r_source);
    if (s.hierarchical) {
      nl.instance({"xe", i}, {{"rf", i}}, shared ? Name("slice") : Name{"slice_", i});
    } else {
      const ElementDraw d = element_draw(s, i);
      emit_slice_body(nl, Name{"xe", i, "."}.str(), Name{"rf", i}.str(), s, d.switch_ron,
                      d.zbb_r);
    }
  }
  return std::move(nl).str();
}

/// One transistor-level single-balanced mixer slice: source resistor into
/// a switching pair at the paper's quad sizing, resistive loads to VDD.
void emit_qslice_body(NetlistBuilder& nl, const std::string& pre,
                      const std::string& rf, const std::string& lop,
                      const std::string& lom, const std::string& vdd, double w1,
                      double w2, double l) {
  nl.resistor(pre + "rsrc", rf, pre + "s", 100.0);
  nl.mosfet(pre + "m1", pre + "outp", lop, pre + "s", "0", "nmos", w1, l);
  nl.mosfet(pre + "m2", pre + "outm", lom, pre + "s", "0", "nmos", w2, l);
  nl.resistor(pre + "rlp", vdd, pre + "outp", 500.0);
  nl.resistor(pre + "rlm", vdd, pre + "outm", 500.0);
}

std::string render_mixer_slice(const GenSpec& s) {
  const core::QuadGeometry geo = core::quad_geometry(core::MixerConfig{});
  NetlistBuilder nl;
  nl.comment("gen mixer_slice elements=" + itos(s.elements) +
             (s.hierarchical ? " hierarchical" : " flat"));
  const bool shared = s.mismatch <= 0.0;
  const auto widths = [&](int i) {
    // Reuse the rx_array draw stream as pure scale factors so one seed
    // describes one consistent piece of mismatched hardware per element.
    const ElementDraw d = element_draw(s, i);
    return std::pair<double, double>{geo.w * (d.switch_ron / s.switch_ron),
                                     geo.w * (d.zbb_r / s.zbb_r)};
  };
  if (s.hierarchical) {
    if (shared) {
      nl.begin_subckt("qslice", {"rf", "lop", "lom", "vdd"});
      emit_qslice_body(nl, "", "rf", "lop", "lom", "vdd", geo.w, geo.w, geo.l);
      nl.end_subckt();
    } else {
      for (int i = 0; i < s.elements; ++i) {
        const auto [w1, w2] = widths(i);
        nl.begin_subckt("qslice_" + itos(i), {"rf", "lop", "lom", "vdd"});
        emit_qslice_body(nl, "", "rf", "lop", "lom", "vdd", w1, w2, geo.l);
        nl.end_subckt();
      }
    }
  }
  for (int i = 0; i < s.elements; ++i) {
    const std::string e = itos(i);
    nl.vsource_dc("vrf_e" + e, "rf" + e, "0", 0.55);
    nl.vsource_dc("vlop_e" + e, "lop" + e, "0", 1.2);
    nl.vsource_dc("vlom_e" + e, "lom" + e, "0", 0.3);
    nl.vsource_dc("vdd_e" + e, "vdd" + e, "0", 1.2);
    if (s.hierarchical) {
      nl.instance("xm" + e, {"rf" + e, "lop" + e, "lom" + e, "vdd" + e},
                  shared ? "qslice" : "qslice_" + e);
    } else {
      const auto [w1, w2] = widths(i);
      emit_qslice_body(nl, "xm" + e + ".", "rf" + e, "lop" + e, "lom" + e,
                       "vdd" + e, w1, w2, geo.l);
    }
  }
  return std::move(nl).str();
}

/// Flat rendering of one ladder section subtree, mirroring the .subckt
/// body card order (rt, then left child, then right child).
void emit_ladder_flat(NetlistBuilder& nl, int depth, const std::string& pre,
                      const std::string& a, const std::string& b,
                      const GenSpec& s) {
  if (depth == 0) {
    nl.resistor(pre + "rs0", a, pre + "m", s.r_source);
    nl.resistor(pre + "rt0", pre + "m", "0", s.zbb_r);
    nl.resistor(pre + "rs1", pre + "m", b, s.r_source);
    return;
  }
  nl.resistor(pre + "rt", pre + "m", "0", s.zbb_r);
  emit_ladder_flat(nl, depth - 1, pre + "x0.", a, pre + "m", s);
  emit_ladder_flat(nl, depth - 1, pre + "x1.", pre + "m", b, s);
}

std::string render_ladder(const GenSpec& s) {
  NetlistBuilder nl;
  nl.comment("gen ladder depth=" + itos(s.depth) +
             (s.hierarchical ? " hierarchical" : " flat"));
  if (s.hierarchical) {
    nl.begin_subckt("sec0", {"a", "b"});
    nl.resistor("rs0", "a", "m", s.r_source);
    nl.resistor("rt0", "m", "0", s.zbb_r);
    nl.resistor("rs1", "m", "b", s.r_source);
    nl.end_subckt();
    for (int d = 1; d <= s.depth; ++d) {
      nl.begin_subckt("sec" + itos(d), {"a", "b"});
      // rt references m before the instances do, so the midpoint node is
      // created by a device card in both renderings (see the rule above).
      nl.resistor("rt", "m", "0", s.zbb_r);
      nl.instance("x0", {"a", "m"}, "sec" + itos(d - 1));
      nl.instance("x1", {"m", "b"}, "sec" + itos(d - 1));
      nl.end_subckt();
    }
  }
  nl.vsource_dc("vin", "in", "0", 1.0);
  nl.resistor("rload", "out", "0", s.zbb_r);
  if (s.hierarchical) {
    nl.instance("xl0", {"in", "out"}, "sec" + itos(s.depth));
  } else {
    emit_ladder_flat(nl, s.depth, "xl0.", "in", "out", s);
  }
  return std::move(nl).str();
}

std::size_t ladder_section_devices(int depth) {
  // f(0) = 3; f(d) = 2 f(d-1) + 1  =>  f(d) = 4 * 2^d - 1.
  return (std::size_t{4} << depth) - 1;
}

void range_check(const char* name, double v, double lo, double hi) {
  if (!(v >= lo) || !(v <= hi))
    throw std::invalid_argument("gen field '" + std::string(name) +
                                "' must be in [" + value_token(lo) + ", " +
                                value_token(hi) + "]");
}

constexpr std::size_t kMaxDevices = 2'000'000;

}  // namespace

void validate(const GenSpec& spec) {
  const bool known = spec.template_id == "rx_array" ||
                     spec.template_id == "mixer_slice" ||
                     spec.template_id == "ladder";
  if (!known)
    throw std::invalid_argument("unknown gen template '" + spec.template_id +
                                "' (expected rx_array, mixer_slice, or ladder)");
  range_check("elements", spec.elements, 1, 65536);
  range_check("paths", spec.paths, 1, 32);
  range_check("sections", spec.sections, 1, 64);
  range_check("depth", spec.depth, 0, 18);
  range_check("mismatch", spec.mismatch, 0.0, 0.5);
  if (spec.template_id == "ladder" && spec.mismatch > 0.0)
    throw std::invalid_argument("template 'ladder' does not support mismatch");
  if (!(spec.r_source > 0.0) || !(spec.switch_ron > 0.0) || !(spec.zbb_r > 0.0))
    throw std::invalid_argument(
        "gen resistances (r_source, switch_ron, zbb_r) must be > 0");
  if (spec.zbb_c < 0.0) throw std::invalid_argument("gen field 'zbb_c' must be >= 0");
  if (!(spec.f_lo_hz > 0.0)) throw std::invalid_argument("gen field 'f_lo_hz' must be > 0");
  const std::size_t n = device_count(spec);
  if (n > kMaxDevices)
    throw std::invalid_argument("gen spec elaborates to " + std::to_string(n) +
                                " devices (limit " + std::to_string(kMaxDevices) +
                                ")");
  // Last, so a spec refused above keeps its message: +inf (a JSON 1e999)
  // passes every sign check and would render as "null" in the deck.
  const std::pair<const char*, double> values[] = {
      {"r_source", spec.r_source}, {"switch_ron", spec.switch_ron}, {"zbb_r", spec.zbb_r},
      {"zbb_c", spec.zbb_c},       {"f_lo_hz", spec.f_lo_hz}};
  for (const auto& [name, value] : values)
    if (!std::isfinite(value))
      throw std::invalid_argument("gen field '" + std::string(name) + "' must be finite");
}

std::string render_netlist(const GenSpec& spec) {
  validate(spec);
  if (spec.template_id == "rx_array") return render_rx_array(spec);
  if (spec.template_id == "mixer_slice") return render_mixer_slice(spec);
  return render_ladder(spec);
}

std::size_t device_count(const GenSpec& spec) {
  const std::size_t m = static_cast<std::size_t>(spec.elements);
  if (spec.template_id == "rx_array") return m * (2 + slice_devices(spec));
  if (spec.template_id == "mixer_slice") return m * (4 + 5);
  return ladder_section_devices(spec.depth) + 2;  // + vin + rload
}

std::vector<std::string> probe_nodes(const GenSpec& spec) {
  std::vector<std::string> probes;
  if (spec.template_id == "ladder") {
    probes = {"in", "out"};
  } else if (spec.template_id == "mixer_slice") {
    probes = {"rf0", "xm0.outp", "xm0.outm"};
  } else {
    const int shown = std::min(spec.elements, 4);
    for (int i = 0; i < shown; ++i) probes.push_back("rf" + itos(i));
    probes.push_back("xe0.b0_" + itos(spec.sections));
  }
  return probes;
}

ElementDraw element_draw(const GenSpec& spec, int element) {
  ElementDraw d{spec.switch_ron, spec.zbb_r};
  if (spec.mismatch <= 0.0) return d;
  mathx::Rng rng = mathx::Rng(spec.seed).fork(static_cast<std::uint64_t>(element));
  // Fixed draw order (ron first, then zbb_r); the multiplicative factor is
  // floored so a deep-sigma draw can never flip a resistance negative.
  const double f_ron = std::max(1.0 + spec.mismatch * rng.normal(), 0.05);
  const double f_rbb = std::max(1.0 + spec.mismatch * rng.normal(), 0.05);
  d.switch_ron *= f_ron;
  d.zbb_r *= f_rbb;
  return d;
}

npath::NpathSpec element_npath_spec(const GenSpec& spec, int element) {
  if (spec.template_id != "rx_array")
    throw std::invalid_argument("template '" + spec.template_id +
                                "' has no N-path interpretation (use rx_array)");
  const ElementDraw d = element_draw(spec, element);
  npath::NpathSpec ns;
  ns.lo.phases = spec.paths;
  ns.f_lo_hz = spec.f_lo_hz;
  ns.r_source = spec.r_source;
  ns.switch_ron = d.switch_ron;
  ns.zbb_r = d.zbb_r;
  ns.zbb_c = spec.zbb_c;
  ns.harmonics = std::max(16, spec.paths + 1);
  return ns;
}

}  // namespace rfmix::gen
