// The npath_zin op: mixer-first N-path Zin/S11 sweep. Strict
// parameter object — a silently dropped knob would collide two different
// front ends on one cache key — with the sweep grid nested under "sweep".
#include <algorithm>
#include <cmath>
#include <vector>

#include "npath/zin.hpp"
#include "obs/json_writer.hpp"
#include "svc/canonical.hpp"
#include "svc/json_parse.hpp"
#include "svc/op_registry.hpp"
#include "svc/ops/registrations.hpp"
#include "svc/ops/shared.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;

std::string execute_npath_zin(const Request& req) {
  const NpathSweepSpec& ns = req.npath;
  const npath::ZinSweep sw = npath::zin_sweep(
      ns.spec, freq_grid(ns.f_start_hz, ns.f_stop_hz, ns.points, ns.log_scale));
  std::vector<double> zin_re, zin_im, s11_db, rerad3;
  zin_re.reserve(sw.points.size());
  zin_im.reserve(sw.points.size());
  s11_db.reserve(sw.points.size());
  rerad3.reserve(sw.points.size());
  for (const npath::ZinPoint& pt : sw.points) {
    zin_re.push_back(pt.zin.real());
    zin_im.push_back(pt.zin.imag());
    // |S11| of a passive one-port is > 0; the clamp only guards the exact-
    // match singularity (log of 0 is not representable in JSON).
    s11_db.push_back(20.0 * std::log10(std::max(std::abs(pt.s11), 1e-12)));
    rerad3.push_back(pt.rerad_3lo);
  }
  std::string out = "{\"analysis\":\"npath_zin\",\"phases\":";
  out += json::number(double(ns.spec.lo.phases));
  out += ",\"f_lo_hz\":";
  out += json::number(ns.spec.f_lo_hz);
  append_number_array(out, "freqs_hz", sw.freqs_hz);
  append_number_array(out, "zin_real", zin_re);
  append_number_array(out, "zin_imag", zin_im);
  append_number_array(out, "s11_db", s11_db);
  append_number_array(out, "rerad3_rel", rerad3);
  out += ",\"summary\":{\"f_peak_hz\":";
  out += json::number(sw.summary.f_peak_hz);
  out += ",\"zin_peak_ohm\":";
  out += json::number(sw.summary.zin_peak_ohm);
  out += ",\"zin_floor_ohm\":";
  out += json::number(sw.summary.zin_floor_ohm);
  out += ",\"bw_3db_hz\":";
  out += json::number(sw.summary.bw_3db_hz);
  out += ",\"q\":";
  out += json::number(sw.summary.q);
  out += ",\"rerad3_max\":";
  out += json::number(sw.summary.rerad_3lo_max);
  out += "}}";
  return out;
}

}  // namespace

void register_npath_zin_op(OpRegistry& r) {
  OpSpec np;
  np.name = "npath_zin";
  np.analysis = true;
  np.kind = RequestKind::kNpathZin;
  np.strict_params = true;
  np.params = Schema("npath_zin");
  np.params.integer("phases", [](double v, Request& q) { q.npath.spec.lo.phases = int(v); });
  np.params.number("duty", [](double v, Request& q) { q.npath.spec.lo.duty = v; });
  np.params.number("rise_frac", [](double v, Request& q) { q.npath.spec.lo.rise_frac = v; });
  np.params.number("overlap_guard",
                   [](double v, Request& q) { q.npath.spec.lo.overlap_guard = v; });
  np.params.integer("samples", [](double v, Request& q) { q.npath.spec.lo.samples = int(v); });
  np.params.number("f_lo_hz", [](double v, Request& q) { q.npath.spec.f_lo_hz = v; });
  np.params.number("r_source", [](double v, Request& q) { q.npath.spec.r_source = v; });
  np.params.number("switch_ron", [](double v, Request& q) { q.npath.spec.switch_ron = v; });
  np.params.number("zbb_r", [](double v, Request& q) { q.npath.spec.zbb_r = v; });
  np.params.number("zbb_c", [](double v, Request& q) { q.npath.spec.zbb_c = v; });
  np.params.number("c_rf", [](double v, Request& q) { q.npath.spec.c_rf = v; });
  np.params.integer("harmonics", [](double v, Request& q) { q.npath.spec.harmonics = int(v); });
  {
    Schema sweep("sweep");
    sweep.number("f_start_hz", [](double v, Request& q) { q.npath.f_start_hz = v; });
    sweep.number("f_stop_hz", [](double v, Request& q) { q.npath.f_stop_hz = v; });
    sweep.integer("points", [](double v, Request& q) { q.npath.points = int(v); });
    sweep.boolean("log_scale", [](bool v, Request& q) { q.npath.log_scale = v; });
    np.params.object("sweep", [sweep](const JsonValue& v, Request& q) {
      sweep.apply(v, q, /*strict=*/true);
    });
  }
  // Cross-field checks after the schema: the grid has to be sane and the
  // clock set realizable, so an impossible spec fails as bad_params, not
  // mid-solve.
  np.finish = [](Request& q) {
    check_freq_grid(q.npath.f_start_hz, q.npath.f_stop_hz, q.npath.points,
                    "npath_zin sweep");
    npath::validate(q.npath.spec);
  };
  np.canonical = [](CanonicalWriter& w, const Request& req) {
    // New record tags under the kCanonicalEpoch append-only rule: npath
    // requests hash over every front-end knob plus the sweep grid, so
    // two sweeps collide iff they describe the same physics.
    const npath::NpathSpec& s = req.npath.spec;
    w.begin_record("npath");
    w.field("phases", s.lo.phases);
    w.field("duty", s.lo.duty);
    w.field("rise_frac", s.lo.rise_frac);
    w.field("overlap_guard", s.lo.overlap_guard);
    w.field("samples", s.lo.samples);
    w.field("f_lo_hz", s.f_lo_hz);
    w.field("r_source", s.r_source);
    w.field("switch_ron", s.switch_ron);
    w.field("zbb_r", s.zbb_r);
    w.field("zbb_c", s.zbb_c);
    w.field("c_rf", s.c_rf);
    w.field("harmonics", s.harmonics);
    w.end_record();
    w.begin_record("analysis");
    w.field("kind", "npath_zin");
    w.field("f_start_hz", req.npath.f_start_hz);
    w.field("f_stop_hz", req.npath.f_stop_hz);
    w.field("points", req.npath.points);
    w.field("scale", req.npath.log_scale ? "log" : "lin");
    w.end_record();
  };
  np.execute = execute_npath_zin;
  r.register_op(std::move(np));
}

}  // namespace rfmix::svc
