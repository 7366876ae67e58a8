// Hash + canonical-serialization tests, including the property the cache
// contract rests on: the key is invariant under declaration order and
// float spelling, and sensitive to every physical parameter.
#include "svc/hash.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "spice/circuit.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/parser.hpp"
#include "svc/canonical.hpp"
#include "svc/request.hpp"

namespace rfmix::svc {
namespace {

TEST(Hash128, StableAndSeedSensitive) {
  const Hash128 a = hash128("rfmix");
  EXPECT_EQ(a, hash128("rfmix"));
  EXPECT_FALSE(a == hash128("rfmiy"));
  EXPECT_FALSE(a == hash128("rfmix", 1));
  EXPECT_FALSE(hash128("") == hash128(std::string_view("\0", 1)));
}

TEST(Hash128, AllTailLengthsDistinct) {
  // Exercise every branch of the 16-byte block + tail switch.
  std::set<std::string> seen;
  std::string s;
  for (int len = 0; len <= 40; ++len) {
    seen.insert(hash128(s).hex());
    s.push_back(static_cast<char>('a' + (len % 26)));
  }
  EXPECT_EQ(seen.size(), 41u);
}

TEST(Hash128, HexRoundTrip) {
  const Hash128 h = hash128("round trip");
  const std::string hex = h.hex();
  EXPECT_EQ(hex.size(), 32u);
  Hash128 back;
  ASSERT_TRUE(parse_hash128(hex, &back));
  EXPECT_EQ(back, h);
  EXPECT_FALSE(parse_hash128("short", &back));
  EXPECT_FALSE(parse_hash128(std::string(32, 'x'), &back));
  EXPECT_FALSE(parse_hash128(hex, nullptr));
}

TEST(Canonical, EscapesStructuralCharacters) {
  CanonicalWriter w;
  w.begin_record("tag");
  w.field("k", "a|b%c\nd");
  w.end_record();
  EXPECT_EQ(w.str(), "tag|k=a%7Cb%25c%0Ad\n");
}

TEST(Canonical, DeviceRecordBytesPinnedExactly) {
  // Pin the exact record bytes so truncation (a missing end_record() once
  // dropped the final character of the last field's value, colliding e.g.
  // temp=300 with temp=301) cannot reappear silently.
  spice::Circuit ckt;
  const auto in = ckt.node("in"), out = ckt.node("out");
  ckt.add<spice::Resistor>("r1", in, out, 12.0, 300.0);
  EXPECT_EQ(canonical_device_record(ckt, 0),
            "device|kind=resistor|name=r1|nodes=in,out|r=12|temp=300");
}

TEST(Canonical, LastFieldFinalCharacterDistinguishesRecords) {
  const auto record = [](double temp) {
    spice::Circuit ckt;
    ckt.add<spice::Resistor>("r1", ckt.node("in"), spice::kGround, 12.0, temp);
    return canonical_device_record(ckt, 0);
  };
  EXPECT_NE(record(300.0), record(301.0));  // differ only in the final byte
}

// --- circuit-hash invariance ------------------------------------------------

std::string canonical_of(const spice::Circuit& ckt) {
  CanonicalWriter w;
  append_canonical_circuit(w, ckt);
  return w.str();
}

TEST(Canonical, InvariantUnderDeviceDeclarationOrder) {
  spice::Circuit a;
  {
    const auto in = a.node("in"), out = a.node("out");
    a.add<spice::Resistor>("r1", in, out, 1e3);
    a.add<spice::Capacitor>("c1", out, spice::kGround, 1e-9);
    a.add<spice::VoltageSource>("v1", in, spice::kGround, spice::Waveform::dc(1.0));
  }
  spice::Circuit b;
  {
    const auto out = b.node("out"), in = b.node("in");  // nodes reversed too
    b.add<spice::VoltageSource>("v1", in, spice::kGround, spice::Waveform::dc(1.0));
    b.add<spice::Capacitor>("c1", out, spice::kGround, 1e-9);
    b.add<spice::Resistor>("r1", in, out, 1e3);
  }
  EXPECT_EQ(canonical_of(a), canonical_of(b));
}

TEST(Canonical, SensitiveToParamsTerminalsAndNames) {
  const auto build = [](double r, bool swap_terminals, const char* rname) {
    spice::Circuit ckt;
    const auto in = ckt.node("in"), out = ckt.node("out");
    if (swap_terminals) {
      ckt.add<spice::Resistor>(rname, out, in, r);
    } else {
      ckt.add<spice::Resistor>(rname, in, out, r);
    }
    return ckt;
  };
  const std::string base = canonical_of(build(1e3, false, "r1"));
  EXPECT_NE(base, canonical_of(build(1e3 + 1e-9, false, "r1")));  // tiny param change
  EXPECT_NE(base, canonical_of(build(1e3, true, "r1")));          // terminal order
  EXPECT_NE(base, canonical_of(build(1e3, false, "r2")));         // device name
}

TEST(Canonical, RejectsDuplicateDeviceNames) {
  spice::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<spice::Resistor>("r1", in, spice::kGround, 1e3);
  ckt.add<spice::Resistor>("r1", in, spice::kGround, 2e3);
  CanonicalWriter w;
  EXPECT_THROW(append_canonical_circuit(w, ckt), std::invalid_argument);
}

TEST(RequestKey, NetlistLineOrderInvariant) {
  Request a;
  a.kind = RequestKind::kOp;
  a.netlist = "V1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n";
  Request b = a;
  b.netlist = "R2 out 0 1k\nR1 in out 1k\nV1 in 0 DC 1\n";
  EXPECT_EQ(request_key(a), request_key(b));
  EXPECT_EQ(request_canonical(a), request_canonical(b));
}

TEST(RequestKey, FloatSpellingInvariant) {
  Request a;
  a.kind = RequestKind::kOp;
  a.netlist = "V1 in 0 DC 1\nR1 in 0 1k\n";
  Request b = a;
  b.netlist = "V1 in 0 DC 1.0\nR1 in 0 1000\n";  // same doubles, different text
  EXPECT_EQ(request_key(a), request_key(b));
}

TEST(RequestKey, ContinuationLinesInvariant) {
  Request a;
  a.kind = RequestKind::kOp;
  a.netlist = "V1 in 0 DC 1.2\nM1 out in 0 0 NMOS W=10u L=65n\nR1 in out 1k\n";
  Request b = a;
  b.netlist = "V1 in 0\n+ DC 1.2\nM1 out in 0 0 NMOS\n+ W=10u\n+L=65n\nR1 in out 1k\n";
  EXPECT_EQ(request_key(a), request_key(b));
}

TEST(RequestKey, AnalysisConfigChangesKey) {
  Request ac;
  ac.kind = RequestKind::kAc;
  ac.netlist = "V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n";
  ac.ac.probe = "out";
  const Hash128 base = request_key(ac);

  Request op = ac;
  op.kind = RequestKind::kOp;
  EXPECT_FALSE(base == request_key(op));  // analysis kind

  Request pts = ac;
  pts.ac.points = ac.ac.points + 1;
  EXPECT_FALSE(base == request_key(pts));

  Request probe = ac;
  probe.ac.probe = "in";
  EXPECT_FALSE(base == request_key(probe));

  Request lin = ac;
  lin.ac.log_scale = false;
  EXPECT_FALSE(base == request_key(lin));
}

TEST(RequestKey, EveryMixerConfigFieldPerturbsKey) {
  using core::MixerConfig;
  // One mutator per MixerConfig field; keep in sync with the struct. The
  // count assertion below trips when a field is added here but the list is
  // what guarantees "no silently uncached knob".
  const std::vector<std::function<void(MixerConfig&)>> mutators = {
      [](MixerConfig& c) { c.mode = core::MixerMode::kPassive; },
      [](MixerConfig& c) { c.temperature_k += 1; },
      [](MixerConfig& c) { c.vdd += 1e-3; },
      [](MixerConfig& c) { c.f_lo_hz += 1; },
      [](MixerConfig& c) { c.lo_amplitude += 1e-6; },
      [](MixerConfig& c) { c.lo_common_mode += 1e-6; },
      [](MixerConfig& c) { c.lo_rise_fraction += 1e-6; },
      [](MixerConfig& c) { c.lo_phase_frac += 1e-6; },
      [](MixerConfig& c) { c.rf_series_r += 1; },
      [](MixerConfig& c) { c.tca_gm += 1e-6; },
      [](MixerConfig& c) { c.tca_rout += 1; },
      [](MixerConfig& c) { c.tca_cpar += 1e-18; },
      [](MixerConfig& c) { c.tca_bias_ma += 1e-3; },
      [](MixerConfig& c) { c.tca_nf_gamma += 1e-3; },
      [](MixerConfig& c) { c.tca_flicker_corner_hz += 1; },
      [](MixerConfig& c) { c.quad_w += 1e-9; },
      [](MixerConfig& c) { c.quad_ron += 1e-3; },
      [](MixerConfig& c) { c.quad_l += 1e-12; },
      [](MixerConfig& c) { c.sw12_w += 1e-9; },
      [](MixerConfig& c) { c.rdeg += 1e-3; },
      [](MixerConfig& c) { c.rdeg_ideal_extra += 1e-3; },
      [](MixerConfig& c) { c.tg_resistance += 1; },
      [](MixerConfig& c) { c.cc_load += 1e-15; },
      [](MixerConfig& c) { c.tia_rf += 1; },
      [](MixerConfig& c) { c.tia_cf += 1e-15; },
      [](MixerConfig& c) { c.tia_ota_gm += 1e-6; },
      [](MixerConfig& c) { c.tia_ota_rout += 1; },
      [](MixerConfig& c) { c.tia_ota_gbw_hz += 1; },
      [](MixerConfig& c) { c.tia_bias_ma += 1e-3; },
      [](MixerConfig& c) { c.tia_input_noise_nv += 1e-3; },
      [](MixerConfig& c) { c.tia_flicker_corner_hz += 1; },
      [](MixerConfig& c) { c.active_pair_noise_gm += 1e-6; },
      [](MixerConfig& c) { c.active_pair_flicker_corner_hz += 1; },
      [](MixerConfig& c) { c.lo_buffer_ma += 1e-3; },
      [](MixerConfig& c) { c.bias_overhead_ma += 1e-3; },
      [](MixerConfig& c) { c.core_bias_ma += 1e-3; },
  };

  Request base;
  base.kind = RequestKind::kMixerMetric;
  base.metric.metric = core::MixerMetric::kGainDb;
  const Hash128 base_key = request_key(base);

  std::set<std::string> keys;
  keys.insert(base_key.hex());
  for (std::size_t i = 0; i < mutators.size(); ++i) {
    Request r = base;
    mutators[i](r.metric.config);
    const Hash128 k = request_key(r);
    EXPECT_FALSE(k == base_key) << "mutator " << i << " did not change the key";
    keys.insert(k.hex());
  }
  // Each perturbation also distinct from the others (fields not aliased).
  EXPECT_EQ(keys.size(), mutators.size() + 1);

  // Metric / frequency knobs perturb the key too.
  Request nf = base;
  nf.metric.metric = core::MixerMetric::kNfDsbDb;
  EXPECT_FALSE(request_key(nf) == base_key);
  Request fif = base;
  fif.metric.f_if_hz *= 2;
  EXPECT_FALSE(request_key(fif) == base_key);
  Request frf = base;
  frf.metric.f_rf_hz = 2.45e9;
  EXPECT_FALSE(request_key(frf) == base_key);
}

TEST(RequestKey, Iip3KeysIgnoreTheFrequenciesItDoesNotRead) {
  // IIP3 comes from the behavioral two-tone model, which reads neither
  // f_if_hz nor f_rf_hz: requests differing only there share one key. Gain
  // and NF read both, so their keys still move.
  for (const core::MixerMetric metric :
       {core::MixerMetric::kIip3Dbm, core::MixerMetric::kGainDb, core::MixerMetric::kNfDsbDb}) {
    Request base;
    base.kind = RequestKind::kMixerMetric;
    base.metric.metric = metric;
    const Hash128 base_key = request_key(base);
    Request fif = base;
    fif.metric.f_if_hz *= 2;
    Request frf = base;
    frf.metric.f_rf_hz = 2.45e9;
    const bool iip3 = metric == core::MixerMetric::kIip3Dbm;
    EXPECT_EQ(request_key(fif) == base_key, iip3) << core::metric_name(metric);
    EXPECT_EQ(request_key(frf) == base_key, iip3) << core::metric_name(metric);
  }
}

TEST(RequestKey, IncludesCodeVersion) {
  Request r;
  r.kind = RequestKind::kOp;
  r.netlist = "V1 in 0 DC 1\nR1 in 0 1k\n";
  const std::string canon = request_canonical(r);
  EXPECT_NE(canon.find("version|epoch="), std::string::npos) << canon;
  EXPECT_NE(canon.find("|git="), std::string::npos) << canon;
}

}  // namespace
}  // namespace rfmix::svc
