// Noise budget: per-source breakdown of the output noise at 5 MHz IF from
// the LPTV element model (hand-built, calibrated). The designer's view of
// WHY the two modes have the NF they have.
#include <algorithm>
#include <iostream>

#include "core/lptv_model.hpp"
#include "lptv/lptv.hpp"
#include "obs/cli.hpp"
#include "rf/table.hpp"

using namespace rfmix;
using core::MixerConfig;
using core::MixerMode;

int main(int argc, char** argv) {
  obs::BenchCli cli(argc, argv, "bench_noise_budget");
  std::ostream& out = cli.out();
  out << "=== Noise budget @ 5 MHz IF (sorted, > 1% contributions) ===\n\n";

  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive}) {
    MixerConfig cfg;
    cfg.mode = mode;
    out << "--- " << frontend::mode_name(mode) << " mode, LPTV element model ---\n";
    const auto model = core::build_lptv_mixer(cfg);
    lptv::ConversionAnalysis an(model->circuit, {cfg.f_lo_hz, 8});
    const auto noise = an.output_noise(5e6, model->out_p, model->out_m);
    auto contributions = noise.contributions;
    std::sort(contributions.begin(), contributions.end(),
              [](const auto& a, const auto& b) {
                return a.output_psd_v2_hz > b.output_psd_v2_hz;
              });
    rf::ConsoleTable table({"source", "share (%)"});
    for (const auto& c : contributions) {
      const double pct = 100.0 * c.output_psd_v2_hz / noise.total_output_psd_v2_hz;
      if (pct < 1.0) continue;
      table.add_row({c.label, rf::ConsoleTable::num(pct, 1)});
    }
    table.print(out);
    const auto nf = core::lptv_nf_dsb(cfg, 5e6);
    out << "  total NF: " << rf::ConsoleTable::num(nf.nf_dsb_db, 2) << " dB\n\n";
  }

  out << "Reading: the active mode is dominated by the commutated Gm devices\n"
               "(classic Gilbert behaviour); the passive mode adds TIA op-amp and\n"
               "switch-quad terms on a weaker signal path — the 2.6 dB NF penalty the\n"
               "paper reports for its high-linearity mode.\n";
  return cli.finish();
}
