// Independent and controlled sources.
#pragma once

#include <complex>

#include "spice/device.hpp"
#include "spice/waveform.hpp"

namespace rfmix::spice {

/// Independent voltage source with an optional AC magnitude/phase used by
/// the small-signal analyses.
class VoltageSource : public Device {
 public:
  VoltageSource(std::string name, NodeId p, NodeId m, Waveform w)
      : Device(std::move(name)), p_(p), m_(m), wave_(std::move(w)) {}

  int num_branches() const override { return 1; }

  void set_waveform(Waveform w) { wave_ = std::move(w); }
  const Waveform& waveform() const { return wave_; }

  void set_ac(double magnitude, double phase_rad = 0.0) {
    ac_mag_ = magnitude;
    ac_phase_ = phase_rad;
  }
  double ac_magnitude() const { return ac_mag_; }

  void stamp(RealStamper& s, const Solution&, const StampParams& p) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const double v = (p.mode == AnalysisMode::kDc ? wave_.dc_value() : wave_.value(p.time));
    s.add_rhs(s.layout().branch_unknown(b), v * p.source_scale);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    if (ac_mag_ != 0.0) {
      s.add_rhs(s.layout().branch_unknown(b),
                std::polar(ac_mag_, ac_phase_));
    }
  }

  /// Current flowing from p through the source to m.
  double current(const Solution& x) const { return x.branch_current(branch_base()); }

  double dissipated_power(const Solution& op) const override {
    // Negative when the source delivers power to the circuit.
    return op.vd(p_, m_) * op.branch_current(branch_base());
  }

  DeviceDesc describe() const override {
    DeviceDesc d{"vsource", {p_, m_}, {}, {}};
    wave_.describe(d.text, d.params);
    d.params.emplace_back("acmag", ac_mag_);
    d.params.emplace_back("acphase", ac_phase_);
    return d;
  }

 private:
  NodeId p_, m_;
  Waveform wave_;
  double ac_mag_ = 0.0;
  double ac_phase_ = 0.0;
};

/// Independent current source; current flows from p to m through the device.
class CurrentSource : public Device {
 public:
  CurrentSource(std::string name, NodeId p, NodeId m, Waveform w)
      : Device(std::move(name)), p_(p), m_(m), wave_(std::move(w)) {}

  void set_waveform(Waveform w) { wave_ = std::move(w); }
  void set_ac(double magnitude, double phase_rad = 0.0) {
    ac_mag_ = magnitude;
    ac_phase_ = phase_rad;
  }

  void stamp(RealStamper& s, const Solution&, const StampParams& p) const override {
    const double i = (p.mode == AnalysisMode::kDc ? wave_.dc_value() : wave_.value(p.time));
    s.add_device_current(p_, m_, i * p.source_scale);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    if (ac_mag_ != 0.0) s.add_current_source(p_, m_, std::polar(ac_mag_, ac_phase_));
  }

  DeviceDesc describe() const override {
    DeviceDesc d{"isource", {p_, m_}, {}, {}};
    wave_.describe(d.text, d.params);
    d.params.emplace_back("acmag", ac_mag_);
    d.params.emplace_back("acphase", ac_phase_);
    return d;
  }

 private:
  NodeId p_, m_;
  Waveform wave_;
  double ac_mag_ = 0.0;
  double ac_phase_ = 0.0;
};

/// Voltage-controlled current source: i(p->m) = gm * (v(c) - v(d)).
class Vccs : public Device {
 public:
  Vccs(std::string name, NodeId p, NodeId m, NodeId c, NodeId d, double gm)
      : Device(std::move(name)), p_(p), m_(m), c_(c), d_(d), gm_(gm) {}

  double gm() const { return gm_; }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    s.add_vccs(p_, m_, c_, d_, gm_);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    s.add_vccs(p_, m_, c_, d_, gm_);
  }

  DeviceDesc describe() const override {
    return {"vccs", {p_, m_, c_, d_}, {{"gm", gm_}}, {}};
  }

 private:
  NodeId p_, m_, c_, d_;
  double gm_;
};

/// Voltage-controlled voltage source: v(p) - v(m) = gain * (v(c) - v(d)).
class Vcvs : public Device {
 public:
  Vcvs(std::string name, NodeId p, NodeId m, NodeId c, NodeId d, double gain)
      : Device(std::move(name)), p_(p), m_(m), c_(c), d_(d), gain_(gain) {}

  int num_branches() const override { return 1; }

  double gain() const { return gain_; }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    s.add_entry(ub, s.layout().node_unknown(c_), -gain_);
    s.add_entry(ub, s.layout().node_unknown(d_), gain_);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    s.add_entry(ub, s.layout().node_unknown(c_), std::complex<double>(-gain_));
    s.add_entry(ub, s.layout().node_unknown(d_), std::complex<double>(gain_));
  }

  DeviceDesc describe() const override {
    return {"vcvs", {p_, m_, c_, d_}, {{"gain", gain_}}, {}};
  }

 private:
  NodeId p_, m_, c_, d_;
  double gain_;
};

/// Current-controlled current source: i(p->m) = gain * i(ctrl), where the
/// controlling current is the branch current of another device (typically a
/// 0 V voltage source used as an ammeter).
class Cccs : public Device {
 public:
  Cccs(std::string name, NodeId p, NodeId m, const Device* control, double gain)
      : Device(std::move(name)), p_(p), m_(m), control_(control), gain_(gain) {
    if (control_ == nullptr || control_->num_branches() == 0)
      throw std::invalid_argument("Cccs control device must own a branch current");
  }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    const int ub = s.layout().branch_unknown(control_->branch_base());
    const int up = s.layout().node_unknown(p_);
    const int um = s.layout().node_unknown(m_);
    if (up >= 0) s.add_entry(up, ub, gain_);
    if (um >= 0) s.add_entry(um, ub, -gain_);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    const int ub = s.layout().branch_unknown(control_->branch_base());
    const int up = s.layout().node_unknown(p_);
    const int um = s.layout().node_unknown(m_);
    if (up >= 0) s.add_entry(up, ub, std::complex<double>(gain_));
    if (um >= 0) s.add_entry(um, ub, std::complex<double>(-gain_));
  }

  DeviceDesc describe() const override {
    return {"cccs", {p_, m_}, {{"gain", gain_}}, {{"control", control_->name()}}};
  }

 private:
  NodeId p_, m_;
  const Device* control_;
  double gain_;
};

/// Current-controlled voltage source: v(p) - v(m) = r * i(ctrl).
class Ccvs : public Device {
 public:
  Ccvs(std::string name, NodeId p, NodeId m, const Device* control, double r)
      : Device(std::move(name)), p_(p), m_(m), control_(control), r_(r) {
    if (control_ == nullptr || control_->num_branches() == 0)
      throw std::invalid_argument("Ccvs control device must own a branch current");
  }

  int num_branches() const override { return 1; }

  void stamp(RealStamper& s, const Solution&, const StampParams&) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    s.add_entry(ub, s.layout().branch_unknown(control_->branch_base()), -r_);
  }

  void stamp_ac(ComplexStamper& s, const Solution&, double) const override {
    const int b = branch_base();
    s.add_branch_incidence(p_, m_, b);
    const int ub = s.layout().branch_unknown(b);
    s.add_entry(ub, s.layout().branch_unknown(control_->branch_base()),
                std::complex<double>(-r_));
  }

  DeviceDesc describe() const override {
    return {"ccvs", {p_, m_}, {{"r", r_}}, {{"control", control_->name()}}};
  }

 private:
  NodeId p_, m_;
  const Device* control_;
  double r_;
};

}  // namespace rfmix::spice
