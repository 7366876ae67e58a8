// Linear passive devices: resistor, capacitor, inductor, and an ideal
// voltage-controlled switch.
#pragma once

#include <cmath>
#include <stdexcept>

#include "mathx/units.hpp"
#include "spice/device.hpp"

namespace rfmix::spice {

class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId p, NodeId m, double ohms, double temperature_k = mathx::kT0)
      : Device(std::move(name)), p_(p), m_(m), ohms_(ohms), temp_(temperature_k) {
    if (!(ohms > 0.0)) throw std::invalid_argument("Resistor requires positive resistance");
  }

  NodeId p() const { return p_; }
  NodeId m() const { return m_; }
  double resistance() const { return ohms_; }
  void set_resistance(double ohms) {
    if (!(ohms > 0.0)) throw std::invalid_argument("Resistor requires positive resistance");
    ohms_ = ohms;
  }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    s.add_conductance(p_, m_, 1.0 / ohms_);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    s.add_admittance(p_, m_, 1.0 / ohms_);
  }

  void append_noise(std::vector<NoiseSource>& out, const Solution&) const override {
    const double psd = 4.0 * mathx::kBoltzmann * temp_ / ohms_;  // A^2/Hz
    out.push_back(NoiseSource{p_, m_, [psd](double) { return psd; }, name() + ".thermal"});
  }

  double dissipated_power(const Solution& op) const override {
    const double v = op.vd(p_, m_);
    return v * v / ohms_;
  }

  DeviceDesc describe() const override {
    return {"resistor", {p_, m_}, {{"r", ohms_}, {"temp", temp_}}, {}};
  }

 private:
  NodeId p_, m_;
  double ohms_;
  double temp_;
};

class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId p, NodeId m, double farads)
      : Device(std::move(name)), p_(p), m_(m), farads_(farads) {
    if (!(farads >= 0.0)) throw std::invalid_argument("Capacitor requires non-negative value");
  }

  double capacitance() const { return farads_; }

  void stamp(RealStamper& s, const Solution&, const StampParams& p) const override {
    if (p.mode == AnalysisMode::kDc || farads_ == 0.0) return;  // open in DC
    if (p.integrator == Integrator::kBackwardEuler) {
      const double geq = farads_ / p.dt;
      s.add_conductance(p_, m_, geq);
      s.add_device_current(p_, m_, -geq * v_prev_);
    } else {
      const double geq = 2.0 * farads_ / p.dt;
      s.add_conductance(p_, m_, geq);
      s.add_device_current(p_, m_, -geq * v_prev_ - i_prev_);
    }
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double omega) const override {
    s.add_admittance(p_, m_, std::complex<double>(0.0, omega * farads_));
  }

  void tran_begin(const Solution& op) override {
    v_prev_ = op.vd(p_, m_);
    i_prev_ = 0.0;
  }

  void tran_accept(const Solution& x, const StampParams& p) override {
    const double v = x.vd(p_, m_);
    // Update the branch current consistent with the companion model that the
    // accepted step actually used.
    if (p.integrator == Integrator::kBackwardEuler) {
      i_prev_ = farads_ / p.dt * (v - v_prev_);
    } else {
      i_prev_ = 2.0 * farads_ / p.dt * (v - v_prev_) - i_prev_;
    }
    v_prev_ = v;
  }

  DeviceDesc describe() const override {
    return {"capacitor", {p_, m_}, {{"c", farads_}}, {}};
  }

 private:
  NodeId p_, m_;
  double farads_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
};

class Inductor : public Device {
 public:
  Inductor(std::string name, NodeId p, NodeId m, double henries)
      : Device(std::move(name)), p_(p), m_(m), henries_(henries) {
    if (!(henries > 0.0)) throw std::invalid_argument("Inductor requires positive value");
  }

  int num_branches() const override { return 1; }

  void stamp(RealStamper& s, const Solution&, const StampParams& p) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    if (p.mode == AnalysisMode::kDc) {
      // Branch row reads v_p - v_m = 0 (short) — nothing more to add.
      return;
    }
    if (p.integrator == Integrator::kBackwardEuler) {
      const double r = henries_ / p.dt;
      s.add_entry(ub, ub, -r);
      s.add_rhs(ub, -r * i_prev_);
    } else {
      const double r = 2.0 * henries_ / p.dt;
      s.add_entry(ub, ub, -r);
      s.add_rhs(ub, -r * i_prev_ - v_prev_);
    }
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double omega) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    s.add_entry(ub, ub, std::complex<double>(0.0, -omega * henries_));
  }

  void tran_begin(const Solution& op) override {
    i_prev_ = op.branch_current(branch_base());
    v_prev_ = op.vd(p_, m_);
  }

  void tran_accept(const Solution& x, const StampParams&) override {
    i_prev_ = x.branch_current(branch_base());
    v_prev_ = x.vd(p_, m_);
  }

  DeviceDesc describe() const override {
    return {"inductor", {p_, m_}, {{"l", henries_}}, {}};
  }

 private:
  NodeId p_, m_;
  double henries_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
};

/// Ideal voltage-controlled switch: conductance g_on when v(c)-v(d) exceeds
/// the threshold, g_off otherwise. Deliberately memoryless (no hysteresis) —
/// intended for behavioral experiments and tests, not for convergence-critical
/// paths (use MOS switches there).
class IdealSwitch : public Device {
 public:
  IdealSwitch(std::string name, NodeId p, NodeId m, NodeId c, NodeId d,
              double threshold_v, double r_on, double r_off)
      : Device(std::move(name)), p_(p), m_(m), c_(c), d_(d), vth_(threshold_v),
        g_on_(1.0 / r_on), g_off_(1.0 / r_off) {}

  void stamp(RealStamper& s, const Solution& x, const StampParams&) const override {
    // The control dependence is intentionally not linearized (derivative is
    // zero almost everywhere); the switch state is frozen per NR iteration.
    const double g = x.vd(c_, d_) > vth_ ? g_on_ : g_off_;
    s.add_conductance(p_, m_, g);
  }

  void stamp_ac(ComplexStamper& s, const Solution& op, double) const override {
    const double g = op.vd(c_, d_) > vth_ ? g_on_ : g_off_;
    s.add_admittance(p_, m_, g);
  }

  void append_noise(std::vector<NoiseSource>& out, const Solution& op) const override {
    const double g = op.vd(c_, d_) > vth_ ? g_on_ : g_off_;
    const double psd = 4.0 * mathx::kBoltzmann * mathx::kT0 * g;
    out.push_back(NoiseSource{p_, m_, [psd](double) { return psd; }, name() + ".thermal"});
  }

  DeviceDesc describe() const override {
    return {"switch",
            {p_, m_, c_, d_},
            {{"vth", vth_}, {"gon", g_on_}, {"goff", g_off_}},
            {}};
  }

 private:
  NodeId p_, m_, c_, d_;
  double vth_;
  double g_on_, g_off_;
};

}  // namespace rfmix::spice
