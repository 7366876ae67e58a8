// ENGINE-DIGESTS: bit fingerprints of every engine's outputs.
//
// Prints one `name digest` line per output family: an FNV-1a 64 hash of
// the raw bytes of the doubles the family produces, in a fixed order. Two
// builds (or two thread counts) whose lines match computed the same bits;
// a line that differs names the family that moved:
//
//   RFMIX_THREADS=1 ./bench_engine_digests > a.txt
//   RFMIX_THREADS=4 ./bench_engine_digests > b.txt
//   diff a.txt b.txt
//
// With family names as arguments it prints those families' values instead,
// one `%.17g` per line, so two builds' values can be compared numerically.
//
// Families, all on default configurations: per mixer mode, the transistor
// mixer's DC operating point (op_), a 5 MHz-IF transient capture (tran_),
// its PSS orbit (pss_), AC and noise sweeps (acnoise_), PSS+PAC gains
// (pac_) and PNOISE (pnoise_), and the LPTV model's Fig. 8 gain and Fig. 9
// NF sweeps (lptv_gain_, lptv_nf_); the 4-phase N-path Zin sweep
// (npath_zin); and rx_array DC operating points at 4 to 2048 elements for
// several mismatch seeds (rx_array_N[_sS]) and nominal (rx_array_nominal_N).
// About 5 s on one core.
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/lptv_model.hpp"
#include "core/measurements.hpp"
#include "core/pac_transistor.hpp"
#include "gen/templates.hpp"
#include "npath/zin.hpp"
#include "spice/ac.hpp"
#include "spice/noise.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"
#include "spice/pss.hpp"

using namespace rfmix;

namespace {

using Values = std::vector<double>;

struct Family {
  std::string name;
  std::function<Values()> run;
};

std::uint64_t fnv1a(const Values& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : values) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

void push(Values& out, std::complex<double> z) {
  out.push_back(z.real());
  out.push_back(z.imag());
}

core::MixerConfig config_for(core::MixerMode mode) {
  core::MixerConfig cfg;
  cfg.mode = mode;
  return cfg;
}

Values mixer_op(core::MixerMode mode) {
  auto mixer = core::build_transistor_mixer(config_for(mode));
  return spice::dc_operating_point(mixer->circuit).raw();
}

Values mixer_tran(core::MixerMode mode) {
  core::MixerConfig cfg = config_for(mode);
  cfg.rf_series_r = 50.0;
  auto mixer = core::build_transistor_mixer(cfg);
  core::TransientMeasureOptions opts;
  opts.grid_hz = 1e6;
  opts.grid_periods = 1;
  opts.settle_periods = 0.4;
  opts.samples_per_lo = 20;
  return core::capture_if_output(*mixer, {{cfg.f_lo_hz + 5e6}, 2e-3}, opts).samples;
}

Values mixer_pss(core::MixerMode mode) {
  auto mixer = core::build_transistor_mixer(config_for(mode));
  spice::PssOptions opts;
  opts.samples_per_period = 32;
  const spice::PssResult pss =
      spice::periodic_steady_state(mixer->circuit, 1.0 / mixer->config.f_lo_hz, opts);
  Values out = {pss.converged ? 1.0 : 0.0, static_cast<double>(pss.periods_used),
                pss.residual_v};
  for (const auto& x : pss.samples) out.insert(out.end(), x.raw().begin(), x.raw().end());
  return out;
}

Values mixer_acnoise(core::MixerMode mode) {
  auto mixer = core::build_transistor_mixer(config_for(mode));
  const spice::Solution op = spice::dc_operating_point(mixer->circuit);
  const std::vector<double> freqs = spice::log_space(1e3, 1e10, 29);
  const spice::AcResult ac = spice::ac_sweep(mixer->circuit, op, freqs);
  const spice::NoiseResult noise =
      spice::noise_analysis(mixer->circuit, op, mixer->if_p, mixer->if_m, freqs);
  Values out;
  for (const auto& sol : ac.solutions)
    for (const auto& z : sol) push(out, z);
  for (const auto& pt : noise.points) {
    out.push_back(pt.freq_hz);
    out.push_back(pt.total_output_psd_v2_hz);
    for (const auto& c : pt.contributions) out.push_back(c.output_psd_v2_hz);
  }
  return out;
}

Values mixer_pac(core::MixerMode mode) {
  const core::PacResult r = core::pac_conversion_gain(config_for(mode), 5e6);
  return {r.pss_converged ? 1.0 : 0.0, static_cast<double>(r.pss_periods),
          r.conversion_gain_db, r.image_gain_db};
}

Values mixer_pnoise(core::MixerMode mode) {
  const core::PnoiseResult r = core::pac_nf_dsb(config_for(mode), 5e6);
  return {r.pss_converged ? 1.0 : 0.0, r.output_noise_v2_hz, r.nf_dsb_db, r.gain_db};
}

Values lptv_gain(core::MixerMode mode) {
  return core::lptv_gain_vs_rf_sweep_db(config_for(mode),
                                        {0.5e9, 1e9, 2.405e9, 3.3e9, 5.2e9, 7e9});
}

Values lptv_nf(core::MixerMode mode) {
  Values out;
  const std::vector<double> f_if = {1e4, 1e5, 1e6, 5e6, 2e7, 5e7};
  for (const auto& pt : core::lptv_nf_sweep(config_for(mode), f_if)) {
    out.push_back(pt.f_if_hz);
    out.push_back(pt.nf_dsb_db);
    out.push_back(pt.gain_db);
    out.push_back(pt.output_noise_v2_hz);
  }
  return out;
}

Values npath_zin() {
  npath::NpathSpec spec;
  spec.lo.phases = 4;
  spec.lo.rise_frac = 0.02;
  spec.lo.samples = 128;
  spec.harmonics = 10;
  spec.f_lo_hz = 1e9;
  spec.zbb_r = 2e3;
  spec.zbb_c = 25e-12;
  spec.c_rf = 1e-13;
  const npath::ZinSweep sw = npath::zin_sweep(spec, spice::lin_space(0.6e9, 1.4e9, 33));
  Values out;
  for (const auto& pt : sw.points) {
    out.push_back(pt.f_hz);
    push(out, pt.zin);
    push(out, pt.s11);
    out.push_back(pt.rerad_minus);
    out.push_back(pt.rerad_plus);
    out.push_back(pt.rerad_3lo);
  }
  const npath::ZinSummary& s = sw.summary;
  out.insert(out.end(), {s.f_peak_hz, s.zin_peak_ohm, s.zin_floor_ohm, s.bw_3db_hz, s.q,
                         s.rerad_3lo_max});
  return out;
}

Values rx_array_op(const gen::GenSpec& spec) {
  spice::Circuit ckt = spice::parse_netlist(gen::render_netlist(spec));
  return spice::dc_operating_point(ckt).raw();
}

std::vector<Family> families() {
  std::vector<Family> f;
  for (const core::MixerMode mode : {core::MixerMode::kActive, core::MixerMode::kPassive}) {
    auto add = [&](const char* prefix, Values (*run)(core::MixerMode)) {
      std::string name = prefix;
      name += frontend::mode_name(mode);
      f.push_back({name, [run, mode] { return run(mode); }});
    };
    add("op_", mixer_op);
    add("tran_", mixer_tran);
    add("pss_", mixer_pss);
    add("acnoise_", mixer_acnoise);
    add("pac_", mixer_pac);
    add("pnoise_", mixer_pnoise);
    add("lptv_gain_", lptv_gain);
    add("lptv_nf_", lptv_nf);
  }
  f.push_back({"npath_zin", npath_zin});
  for (const int seed : {1, 2, 3, 4, 7})
    for (const int n : {4, 16, 64, 512, 2048}) {
      gen::GenSpec spec;
      spec.elements = n;
      spec.paths = 4;
      spec.sections = 6;
      spec.zbb_c = 2e-12;
      spec.mismatch = 0.05;
      spec.seed = static_cast<std::uint64_t>(seed);
      std::string name = "rx_array_";
      name += std::to_string(n);
      if (seed != 1) {
        name += "_s";
        name += std::to_string(seed);
      }
      f.push_back({name, [spec] { return rx_array_op(spec); }});
    }
  for (const int n : {4, 16, 2048}) {
    gen::GenSpec spec;
    spec.elements = n;
    std::string name = "rx_array_nominal_";
    name += std::to_string(n);
    f.push_back({name, [spec] { return rx_array_op(spec); }});
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Family> all = families();
  if (argc == 1) {
    for (const Family& f : all)
      std::printf("%s %016llx\n", f.name.c_str(),
                  static_cast<unsigned long long>(fnv1a(f.run())));
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const Family* found = nullptr;
    for (const Family& f : all)
      if (f.name == argv[i]) found = &f;
    if (found == nullptr) {
      std::fprintf(stderr, "bench_engine_digests: unknown family '%s'\n", argv[i]);
      return 2;
    }
    for (const double v : found->run()) std::printf("%s %.17g\n", argv[i], v);
  }
  return 0;
}
