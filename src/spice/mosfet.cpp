#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/units.hpp"

namespace rfmix::spice {

namespace {

/// ln(1 + e^x) computed without overflow.
double softplus(double x) {
  if (x > 40.0) return x;
  if (x < -40.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

/// Logistic sigmoid.
double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// EKV interpolation function F(u) = ln^2(1 + e^{u/2}) and its derivative
/// F'(u) = ln(1 + e^{u/2}) * sigmoid(u/2).
void ekv_f(double u, double& f, double& fp) {
  const double sp = softplus(u / 2.0);
  f = sp * sp;
  fp = sp * sigmoid(u / 2.0);
}

/// Smooth |x|: sqrt(x^2 + eps^2) - eps, zero with zero slope at x = 0.
void smooth_abs(double x, double eps, double& w, double& wp) {
  const double r = std::sqrt(x * x + eps * eps);
  w = r - eps;
  wp = x / r;
}

MosEval ekv_core(const MosParams& p, double vg, double vd, double vs, double vb) {
  const double vt = mathx::kBoltzmann * p.temperature_k / mathx::kElementaryCharge;
  const double is = 2.0 * p.n_slope * p.beta() * vt * vt;

  // Bulk-referenced voltages.
  const double vgb = vg - vb;
  const double vdb = vd - vb;
  const double vsb = vs - vb;

  const double vp = (vgb - p.vto) / p.n_slope;
  const double uf = (vp - vsb) / vt;
  const double ur = (vp - vdb) / vt;

  double ff, ffp, fr, frp;
  ekv_f(uf, ff, ffp);
  ekv_f(ur, fr, frp);

  const double di = ff - fr;

  // Channel-length modulation with a smooth |vds| so drain/source symmetry
  // (ids(vd<->vs) = -ids) is preserved exactly.
  const double vds = vdb - vsb;
  double w, wp;
  smooth_abs(vds, 0.01, w, wp);
  const double m = 1.0 + p.lambda * w;

  MosEval e{};
  e.ids = is * di * m;
  // Partials wrt bulk-referenced voltages, then map to absolute terminals.
  const double d_vgb = is * m * (ffp - frp) / (p.n_slope * vt);
  const double d_vdb = is * (m * frp / vt + di * p.lambda * wp);
  const double d_vsb = is * (-m * ffp / vt - di * p.lambda * wp);
  e.dg = d_vgb;
  e.dd = d_vdb;
  e.ds = d_vsb;
  e.db = -(d_vgb + d_vdb + d_vsb);
  return e;
}

MosEval level1_core(const MosParams& p, double vg, double vd, double vs, double vb) {
  (void)vb;  // Level-1 here omits body effect; EKV handles it through n.
  // Handle vds < 0 by the symmetry ids(d<->s) = -ids.
  const bool swapped = vd < vs;
  const double vds = swapped ? vs - vd : vd - vs;
  const double vgs = swapped ? vg - vd : vg - vs;
  const double beta = p.beta();
  const double vov = vgs - p.vto;

  double ids = 0.0, gm = 0.0, gds = 0.0;
  if (vov <= 0.0) {
    // Cutoff: tiny leakage keeps the Jacobian nonsingular.
    gds = 1e-12;
    ids = gds * vds;
  } else if (vds < vov) {
    // Triode.
    const double clm = 1.0 + p.lambda * vds;
    ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
    gm = beta * vds * clm;
    gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * p.lambda;
  } else {
    // Saturation.
    const double clm = 1.0 + p.lambda * vds;
    ids = 0.5 * beta * vov * vov * clm;
    gm = beta * vov * clm;
    gds = 0.5 * beta * vov * vov * p.lambda;
  }

  MosEval e{};
  if (!swapped) {
    e.ids = ids;
    e.dg = gm;
    e.dd = gds;
    e.ds = -(gm + gds);
  } else {
    // Roles swapped: ids' was computed with vgs' = vg - vd, vds' = vs - vd,
    // and the actual drain current is -ids'. Chain rule:
    //   d(actual)/d vg = -gm,  d(actual)/d vd = gm + gds,  d(actual)/d vs = -gds.
    e.ids = -ids;
    e.dg = -gm;
    e.dd = gm + gds;
    e.ds = -gds;
  }
  e.db = -(e.dg + e.dd + e.ds);
  return e;
}

// The single model entry point: Newton stamping, AC, noise, power and the
// operating-point report all call it. noinline keeps exactly one compiled
// instance: a copy inlined into each call site could be contracted or
// reassociated differently, so two callers at the same terminal voltages
// could see linearizations that differ in the last bits.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
MosEval model_core(const MosParams& p, double vg, double vd, double vs, double vb) {
  if (p.type == MosType::kNmos) {
    return p.level == MosModelLevel::kEkv ? ekv_core(p, vg, vd, vs, vb)
                                          : level1_core(p, vg, vd, vs, vb);
  }
  // PMOS: I_D(V) = -ids_n(-V). The chain rule gives dI_D/dV_k = +d ids_n/d v_k
  // evaluated at the negated voltages.
  const MosEval en = p.level == MosModelLevel::kEkv ? ekv_core(p, -vg, -vd, -vs, -vb)
                                                    : level1_core(p, -vg, -vd, -vs, -vb);
  MosEval e{};
  e.ids = -en.ids;
  e.dg = en.dg;
  e.dd = en.dd;
  e.ds = en.ds;
  e.db = en.db;
  return e;
}

// Channel Jacobian rows for drain (+ids) and source (-ids): the Newton
// matrix and the AC admittance matrix take the same conductances.
template <typename T>
void stamp_channel(Stamper<T>& s, const MosEval& e, NodeId d, NodeId g, NodeId src, NodeId b) {
  const auto& lay = s.layout();
  const int ud = lay.node_unknown(d);
  const int us = lay.node_unknown(src);
  const int ug = lay.node_unknown(g);
  const int ub = lay.node_unknown(b);
  auto stamp_row = [&](int row, double sign) {
    if (row < 0) return;
    if (ug >= 0) s.add_entry(row, ug, sign * e.dg);
    if (ud >= 0) s.add_entry(row, ud, sign * e.dd);
    if (us >= 0) s.add_entry(row, us, sign * e.ds);
    if (ub >= 0) s.add_entry(row, ub, sign * e.db);
  };
  stamp_row(ud, +1.0);
  stamp_row(us, -1.0);
}

}  // namespace

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b, MosParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), b_(b), p_(params) {
  const double cox_area = p_.cox * p_.w * p_.l;
  // Saturation-region split: 2/3 of the channel charge to the source side.
  const double c_gs = (2.0 / 3.0) * cox_area + p_.cov * p_.w;
  const double c_gd = p_.cov * p_.w;
  const double c_db = p_.cj_sd * p_.w;
  const double c_sb = p_.cj_sd * p_.w;
  cgs_ = std::make_unique<Capacitor>(this->name() + ".cgs", g_, s_, c_gs);
  cgd_ = std::make_unique<Capacitor>(this->name() + ".cgd", g_, d_, c_gd);
  cdb_ = std::make_unique<Capacitor>(this->name() + ".cdb", d_, b_, c_db);
  csb_ = std::make_unique<Capacitor>(this->name() + ".csb", s_, b_, c_sb);
}

void Mosfet::stamp(RealStamper& s, const Solution& x, const StampParams& sp) const {
  const double vg = x.v(g_), vd = x.v(d_), vs = x.v(s_), vb = x.v(b_);
  const MosEval e = model_core(p_, vg, vd, vs, vb);
  stamp_channel(s, e, d_, g_, s_, b_);

  const double ieq = e.ids - (e.dg * vg + e.dd * vd + e.ds * vs + e.db * vb);
  s.add_current(d_, s_, ieq);

  if (sp.mode == AnalysisMode::kTransient) {
    cgs_->stamp(s, x, sp);
    cgd_->stamp(s, x, sp);
    cdb_->stamp(s, x, sp);
    csb_->stamp(s, x, sp);
  }
}

void Mosfet::stamp_ac(ComplexStamper& s, const Solution& op, double omega) const {
  stamp_channel(s, model_core(p_, op.v(g_), op.v(d_), op.v(s_), op.v(b_)), d_, g_, s_, b_);
  cgs_->stamp_ac(s, op, omega);
  cgd_->stamp_ac(s, op, omega);
  cdb_->stamp_ac(s, op, omega);
  csb_->stamp_ac(s, op, omega);
}

void Mosfet::append_noise(std::vector<NoiseSource>& out, const Solution& op) const {
  const MosEval e = model_core(p_, op.v(g_), op.v(d_), op.v(s_), op.v(b_));
  // Channel thermal noise: 4kT*gamma*(|gm| + |gds|) covers both saturation
  // (gm dominates) and deep triode where the channel acts as a resistor of
  // conductance ~gds (passive-mixer switches). A single-expression
  // approximation; see DESIGN.md.
  const double gn = std::abs(e.dg) + std::abs(e.dd);
  const double thermal = 4.0 * mathx::kBoltzmann * p_.temperature_k * p_.noise_gamma * gn;
  out.push_back(
      NoiseSource{d_, s_, [thermal](double) { return thermal; }, name() + ".thermal"});

  // Flicker noise referred to the drain: Sid = kf*gm^2 / (Cox*W*L*f^af).
  const double gm2 = e.dg * e.dg;
  const double denom = p_.cox * p_.w * p_.l;
  const double kf = p_.kf;
  const double af = p_.af;
  if (kf > 0.0 && gm2 > 0.0) {
    out.push_back(NoiseSource{d_, s_,
                              [kf, gm2, denom, af](double f) {
                                return kf * gm2 / (denom * std::pow(std::max(f, 1e-3), af));
                              },
                              name() + ".flicker"});
  }
}

void Mosfet::tran_begin(const Solution& op) {
  cgs_->tran_begin(op);
  cgd_->tran_begin(op);
  cdb_->tran_begin(op);
  csb_->tran_begin(op);
}

void Mosfet::tran_accept(const Solution& x, const StampParams& sp) {
  cgs_->tran_accept(x, sp);
  cgd_->tran_accept(x, sp);
  cdb_->tran_accept(x, sp);
  csb_->tran_accept(x, sp);
}

double Mosfet::dissipated_power(const Solution& op) const {
  const MosEval e = model_core(p_, op.v(g_), op.v(d_), op.v(s_), op.v(b_));
  return e.ids * op.vd(d_, s_);
}

MosOperatingPoint Mosfet::evaluate(const Solution& op) const {
  const MosEval e = model_core(p_, op.v(g_), op.v(d_), op.v(s_), op.v(b_));
  MosOperatingPoint r;
  r.ids = e.ids;
  r.gm = e.dg;
  r.gds = e.dd;
  r.gmb = e.db;
  r.vgs = op.vd(g_, s_);
  r.vds = op.vd(d_, s_);
  return r;
}

}  // namespace rfmix::spice
