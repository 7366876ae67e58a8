// Junction diode with exponential I-V, Newton companion stamping and shot
// noise. Used in tests and in ESD/clamp structures of example circuits.
#pragma once

#include <algorithm>
#include <cmath>

#include "mathx/units.hpp"
#include "spice/device.hpp"

namespace rfmix::spice {

struct DiodeParams {
  double is = 1e-14;       // saturation current [A]
  double n = 1.0;          // ideality factor
  double temperature_k = 300.0;
};

class Diode : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params = {})
      : Device(std::move(name)), a_(anode), c_(cathode), p_(params) {}

  void stamp(RealStamper& s, const Solution& x, const StampParams&) const override {
    const double vt = p_.n * mathx::kBoltzmann * p_.temperature_k / mathx::kElementaryCharge;
    // Exponent limiting keeps the Newton iteration finite for wild trial
    // points; the limited model is still C1-continuous.
    const double v = x.vd(a_, c_);
    const double vmax = 40.0 * vt;
    double id, gd;
    if (v < vmax) {
      const double e = std::exp(v / vt);
      id = p_.is * (e - 1.0);
      gd = p_.is * e / vt;
    } else {
      const double e = std::exp(vmax / vt);
      gd = p_.is * e / vt;
      id = p_.is * (e - 1.0) + gd * (v - vmax);
    }
    gd = std::max(gd, 1e-12);
    s.add_admittance(a_, c_, gd);
    s.add_current(a_, c_, id - gd * v);
  }

  void stamp_ac(ComplexStamper& s, const Solution& op, double) const override {
    const double vt = p_.n * mathx::kBoltzmann * p_.temperature_k / mathx::kElementaryCharge;
    const double v = std::min(op.vd(a_, c_), 40.0 * vt);
    const double gd = std::max(p_.is * std::exp(v / vt) / vt, 1e-12);
    s.add_admittance(a_, c_, gd);
  }

  void append_noise(std::vector<NoiseSource>& out, const Solution& op) const override {
    const double vt = p_.n * mathx::kBoltzmann * p_.temperature_k / mathx::kElementaryCharge;
    const double v = std::min(op.vd(a_, c_), 40.0 * vt);
    const double id = p_.is * (std::exp(v / vt) - 1.0);
    const double psd = 2.0 * mathx::kElementaryCharge * std::abs(id);
    out.push_back(NoiseSource{a_, c_, [psd](double) { return psd; }, name() + ".shot"});
  }

  DeviceDesc describe() const override {
    return {"diode",
            {a_, c_},
            {{"is", p_.is}, {"n", p_.n}, {"temp", p_.temperature_k}},
            {}};
  }

 private:
  NodeId a_, c_;
  DiodeParams p_;
};

}  // namespace rfmix::spice
