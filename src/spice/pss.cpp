#include "spice/pss.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spice/tran.hpp"

namespace rfmix::spice {

PssResult periodic_steady_state(Circuit& ckt, double period_s, const PssOptions& opts) {
  if (!(period_s > 0.0)) throw std::invalid_argument("PSS: period must be positive");
  if (opts.samples_per_period < 4)
    throw std::invalid_argument("PSS: need >= 4 samples per period");

  RFMIX_OBS_SCOPED_TIMER("spice.pss");
  RFMIX_OBS_TRACE_SCOPE("spice.pss");
  RFMIX_OBS_COUNT("spice.pss.calls");

  TimeGrid grid(ckt, period_s / opts.samples_per_period);
  const MnaLayout layout = ckt.layout();
  const int nv = layout.num_nodes - 1;

  PssResult result;
  result.period_s = period_s;

  std::vector<Solution> period(static_cast<std::size_t>(opts.samples_per_period),
                               Solution::zeros(layout));
  std::vector<Solution> prev_period;

  for (int p = 0; p < opts.max_periods; ++p) {
    RFMIX_OBS_COUNT("spice.pss.periods");
    for (Solution& sample : period) sample = grid.step();
    result.periods_used = p + 1;

    if (!prev_period.empty() && p + 1 >= opts.min_periods) {
      double dev_max = 0.0;
      for (int k = 0; k < opts.samples_per_period; ++k) {
        const auto& a = period[static_cast<std::size_t>(k)].raw();
        const auto& b = prev_period[static_cast<std::size_t>(k)].raw();
        for (int i = 0; i < nv; ++i)
          dev_max = std::max(dev_max, std::abs(a[static_cast<std::size_t>(i)] -
                                               b[static_cast<std::size_t>(i)]));
      }
      result.residual_v = dev_max;
      if (dev_max < opts.tol_v) {
        result.converged = true;
        result.samples = period;
        return result;
      }
    }
    prev_period = period;
  }
  result.samples = period;
  return result;
}

}  // namespace rfmix::spice
