// MOSFET device with two model levels:
//  * kEkv  — simplified EKV all-region model. Smooth (C-infinity) in every
//            operating region, which is what lets Newton iterate through the
//            reconfigurable mixer's mode-switching bias points without
//            region-boundary chatter. Includes channel-length modulation via
//            a smooth |vds| factor, channel thermal noise and flicker noise.
//  * kLevel1 — classic square-law model (cutoff/triode/saturation) used by
//            tests as an independent cross-check of the EKV implementation.
//
// Terminal capacitances (Cgs/Cgd/Cdb/Csb) are constant, geometry-derived
// linear capacitors owned by the device (the C-V nonlinearity of a real
// BSIM model is a documented substitution — see DESIGN.md). They are stamped
// in transient and AC, and ignored in DC.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spice/device.hpp"
#include "spice/devices_passive.hpp"

namespace rfmix::spice {

enum class MosType { kNmos, kPmos };
enum class MosModelLevel { kEkv, kLevel1 };

struct MosParams {
  MosType type = MosType::kNmos;
  MosModelLevel level = MosModelLevel::kEkv;

  double w = 1e-6;        // channel width [m]
  double l = 65e-9;       // channel length [m]

  double vto = 0.35;      // threshold voltage magnitude [V]
  double kp = 400e-6;     // transconductance parameter mu*Cox [A/V^2]
  double n_slope = 1.35;  // subthreshold slope factor (EKV n)
  double lambda = 0.15;   // channel-length modulation [1/V]
  double cox = 1.5e-2;    // gate oxide capacitance per area [F/m^2]
  double cov = 3e-10;     // overlap capacitance per width [F/m]
  double cj_sd = 8e-10;   // junction capacitance per width (drain/source) [F/m]

  double temperature_k = 300.0;
  double noise_gamma = 1.0;  // channel thermal noise excess factor
  double kf = 2e-31;         // flicker coefficient: Sid = kf*gm^2/(Cox*W*L*f^af)
  double af = 1.0;           // flicker frequency exponent

  double beta() const { return kp * w / l; }
};

/// One linearization of the DC drain-current model: the signed drain
/// current plus its partials wrt the absolute terminal voltages. This is
/// what a Newton iteration stamps.
struct MosEval {
  double ids = 0.0;        // current into drain, out of source (signed)
  double dg = 0.0, dd = 0.0, ds = 0.0, db = 0.0;  // d ids / d v{g,d,s,b}
};

/// Operating-point summary of one transistor, exposed for tests, power
/// accounting and design scripts.
struct MosOperatingPoint {
  double ids = 0.0;  // drain current, positive into drain for NMOS convention
  double gm = 0.0;   // d ids / d vg
  double gds = 0.0;  // d ids / d vd
  double gmb = 0.0;  // d ids / d vb
  double vgs = 0.0;
  double vds = 0.0;
};

class Mosfet : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b, MosParams params);

  const MosParams& params() const { return p_; }

  NodeId drain() const { return d_; }
  NodeId gate() const { return g_; }
  NodeId source() const { return s_; }
  NodeId bulk() const { return b_; }

  void stamp(RealStamper& s, const Solution& x, const StampParams& sp) const override;
  void stamp_ac(ComplexStamper& s, const Solution& op, double omega) const override;
  void append_noise(std::vector<NoiseSource>& out, const Solution& op) const override;
  void tran_begin(const Solution& op) override;
  void tran_accept(const Solution& x, const StampParams& sp) override;
  double dissipated_power(const Solution& op) const override;

  /// Evaluate the DC model at the operating point (terminal voltages taken
  /// from `op`).
  MosOperatingPoint evaluate(const Solution& op) const;

  DeviceDesc describe() const override {
    return {"mosfet",
            {d_, g_, s_, b_},
            {{"w", p_.w},
             {"l", p_.l},
             {"vto", p_.vto},
             {"kp", p_.kp},
             {"n", p_.n_slope},
             {"lambda", p_.lambda},
             {"cox", p_.cox},
             {"cov", p_.cov},
             {"cjsd", p_.cj_sd},
             {"temp", p_.temperature_k},
             {"gamma", p_.noise_gamma},
             {"kf", p_.kf},
             {"af", p_.af}},
            {{"type", p_.type == MosType::kNmos ? "nmos" : "pmos"},
             {"level", p_.level == MosModelLevel::kEkv ? "ekv" : "level1"}}};
  }

 private:
  NodeId d_, g_, s_, b_;
  MosParams p_;
  // Geometry-derived constant parasitics, composed (not registered in the
  // circuit; this device forwards stamp/transient calls).
  std::unique_ptr<Capacitor> cgs_, cgd_, cdb_, csb_;
};

}  // namespace rfmix::spice
