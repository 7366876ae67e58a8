#include "lptv/lptv.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "mathx/fft.hpp"
#include "mathx/solver_config.hpp"
#include "mathx/sparse.hpp"
#include "mathx/units.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rfmix::lptv {

using mathx::kTwoPi;

PeriodicWave square_wave(int n, double lo, double hi, double rise_frac, double phase_frac) {
  if (n <= 0) throw std::invalid_argument("square_wave: n must be positive");
  PeriodicWave w(static_cast<std::size_t>(n));
  const double rise = std::max(rise_frac, 1e-9);
  for (int i = 0; i < n; ++i) {
    // Phase in [0,1); waveform is `hi` in [0, 0.5), `lo` in [0.5, 1), with
    // linear transitions of width `rise` centered at 0 and 0.5.
    double ph = static_cast<double>(i) / n - phase_frac;
    ph -= std::floor(ph);
    double v;
    if (ph < rise / 2.0) {
      v = lo + (hi - lo) * (0.5 + ph / rise);          // rising edge around 0
    } else if (ph < 0.5 - rise / 2.0) {
      v = hi;
    } else if (ph < 0.5 + rise / 2.0) {
      v = hi + (lo - hi) * (ph - (0.5 - rise / 2.0)) / rise;  // falling edge
    } else if (ph < 1.0 - rise / 2.0) {
      v = lo;
    } else {
      v = lo + (hi - lo) * (ph - (1.0 - rise / 2.0)) / rise;  // wrap of rising edge
    }
    w[static_cast<std::size_t>(i)] = v;
  }
  return w;
}

PeriodicWave cosine_wave(int n, double offset, double amp, double phase_rad) {
  if (n <= 0) throw std::invalid_argument("cosine_wave: n must be positive");
  PeriodicWave w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] =
        offset + amp * std::cos(kTwoPi * i / n + phase_rad);
  return w;
}

void LptvCircuit::check_wave(const PeriodicWave& w) const {
  if (static_cast<int>(w.size()) != num_samples_)
    throw std::invalid_argument("periodic waveform must have num_samples() entries");
}

void LptvCircuit::add_conductance(int a, int b, double g) {
  note_node(a);
  note_node(b);
  static_g_.push_back({a, b, g});
}

void LptvCircuit::add_capacitance(int a, int b, double c) {
  note_node(a);
  note_node(b);
  static_c_.push_back({a, b, c});
}

void LptvCircuit::add_vccs(int p, int m, int cp, int cm, double gm) {
  note_node(p);
  note_node(m);
  note_node(cp);
  note_node(cm);
  static_gm_.push_back({p, m, cp, cm, gm});
}

void LptvCircuit::add_transcapacitance(int p, int m, int cp, int cm, double c) {
  note_node(p);
  note_node(m);
  note_node(cp);
  note_node(cm);
  static_cm_.push_back({p, m, cp, cm, c});
}

void LptvCircuit::add_periodic_conductance(int a, int b, PeriodicWave g) {
  check_wave(g);
  note_node(a);
  note_node(b);
  periodic_g_.push_back({a, b, std::move(g)});
}

void LptvCircuit::add_periodic_vccs(int p, int m, int cp, int cm, PeriodicWave gm) {
  check_wave(gm);
  note_node(p);
  note_node(m);
  note_node(cp);
  note_node(cm);
  periodic_gm_.push_back({p, m, cp, cm, std::move(gm)});
}

void LptvCircuit::add_noise_current(int p, int m, std::function<double(double)> psd,
                                    std::string label) {
  note_node(p);
  note_node(m);
  stationary_noise_.push_back({p, m, std::move(psd), std::move(label)});
}

void LptvCircuit::add_cyclo_noise_current(int p, int m, PeriodicWave s_theta,
                                          std::string label) {
  check_wave(s_theta);
  note_node(p);
  note_node(m);
  cyclo_noise_.push_back({p, m, std::move(s_theta), std::move(label)});
}

LptvCircuit lower_sampled_orbit(const std::vector<mathx::MatrixD>& g_samples,
                                const mathx::MatrixD& c) {
  if (g_samples.empty()) throw std::invalid_argument("lower_sampled_orbit: no samples");
  const std::size_t n = g_samples.front().rows();
  for (const auto& g : g_samples)
    if (g.rows() != n || g.cols() != n)
      throw std::invalid_argument("lower_sampled_orbit: inconsistent sample dimensions");
  if (c.rows() != n || c.cols() != n)
    throw std::invalid_argument("lower_sampled_orbit: C dimension mismatch");

  LptvCircuit ckt(static_cast<int>(g_samples.size()));
  ckt.note_node(orbit_node(static_cast<int>(n) - 1));
  PeriodicWave wave(g_samples.size());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const int p = orbit_node(static_cast<int>(i));
      const int cp = orbit_node(static_cast<int>(j));
      bool any = false;
      for (std::size_t s = 0; s < g_samples.size(); ++s) {
        wave[s] = g_samples[s](i, j);
        any = any || wave[s] != 0.0;
      }
      if (any) ckt.add_periodic_vccs(p, 0, cp, 0, wave);
      if (c(i, j) != 0.0) ckt.add_transcapacitance(p, 0, cp, 0, c(i, j));
    }
  return ckt;
}

Complex PacSolution::v(int k, int node) const {
  if (node == 0) return {};
  const int n_unknowns = num_nodes - 1;
  const int block = k + harmonics;
  return x[static_cast<std::size_t>(block * n_unknowns + (node - 1))];
}

// ---------------------------------------------------------------------------

/// Shared analyze-once state for one direction (forward or adjoint) of the
/// block system: the first base-frequency point to factor publishes the
/// pivot order and symbolic structure under the once_flag; every later
/// point refactors against the immutable symbolic.
struct ConversionAnalysis::LuShared {
  std::once_flag once;
  std::shared_ptr<const mathx::SparseLuSymbolic<Complex>> sym;

  /// Numerically factor `mat`, reusing (or, first time through, publishing)
  /// this cache's shared symbolic. Counts one lptv.lu.factorizations per
  /// call regardless of path, so the 2-per-(gain+noise)-point invariant is
  /// unchanged from the analyze-every-time implementation.
  std::unique_ptr<mathx::SparseLu<Complex>> factor(const mathx::CscMatrix<Complex>& mat);
};

std::unique_ptr<mathx::SparseLu<Complex>> ConversionAnalysis::LuShared::factor(
    const mathx::CscMatrix<Complex>& mat) {
  LuShared& cache = *this;
  RFMIX_OBS_COUNT("lptv.lu.factorizations");
  if (mathx::solver_mode() == mathx::SolverMode::kClassic) {
    RFMIX_OBS_COUNT("lptv.lu.analyze");
    return std::make_unique<mathx::SparseLu<Complex>>(mat);
  }
  std::unique_ptr<mathx::SparseLu<Complex>> analyzed;
  std::call_once(cache.once, [&] {
    auto sym = std::make_shared<mathx::SparseLuSymbolic<Complex>>();
    RFMIX_OBS_COUNT("lptv.lu.analyze");
    analyzed = std::make_unique<mathx::SparseLu<Complex>>(mat, *sym);
    cache.sym = std::move(sym);
  });
  if (analyzed) return analyzed;
  if (cache.sym->pattern_matches(mat)) {
    auto lu = std::make_unique<mathx::SparseLu<Complex>>();
    if (lu->refactor_from(*cache.sym, mat)) {
      RFMIX_OBS_COUNT("lptv.lu.refactor");
      return lu;
    }
  }
  // Pattern or pivot disagreement at this base frequency: analyze privately
  // without touching the shared symbolic (still bit-identical to classic).
  RFMIX_OBS_COUNT("lptv.lu.fallback");
  RFMIX_OBS_COUNT("lptv.lu.analyze");
  return std::make_unique<mathx::SparseLu<Complex>>(mat);
}

/// Assembled block system at one base frequency. The forward and adjoint
/// factorizations are built lazily (and thread-safely) on first use: a
/// gain-only point never pays for the adjoint factor, and a noise-only
/// point never pays for the forward one.
struct ConversionAnalysis::Factored::System {
  const ConversionAnalysis* an;
  mathx::CscMatrix<Complex> a;
  mathx::CscMatrix<Complex> at;
  mutable std::once_flag once_fwd, once_adj;
  mutable std::unique_ptr<mathx::SparseLu<Complex>> fwd, adj;

  System(const ConversionAnalysis* an_in, mathx::CscMatrix<Complex> a_in,
         mathx::CscMatrix<Complex> at_in)
      : an(an_in), a(std::move(a_in)), at(std::move(at_in)) {}

  const mathx::SparseLu<Complex>& forward() const {
    std::call_once(once_fwd, [&] { fwd = an->lu_fwd_->factor(a); });
    return *fwd;
  }
  const mathx::SparseLu<Complex>& adjoint() const {
    std::call_once(once_adj, [&] { adj = an->lu_adj_->factor(at); });
    return *adj;
  }
};

ConversionAnalysis::ConversionAnalysis(const LptvCircuit& ckt, ConversionOptions opts)
    : ckt_(ckt), opts_(opts),
      lu_fwd_(std::make_unique<LuShared>()), lu_adj_(std::make_unique<LuShared>()) {
  if (opts_.harmonics < 1) throw std::invalid_argument("harmonics must be >= 1");
  if (ckt_.num_samples() < 4 * opts_.harmonics + 2)
    throw std::invalid_argument(
        "num_samples too small for requested harmonic count (need >= 4K+2)");
  n_unknowns_ = ckt_.num_nodes() - 1;
  block_count_ = 2 * opts_.harmonics + 1;
  if (n_unknowns_ < 1) throw std::invalid_argument("LPTV circuit has no nodes");
}

ConversionAnalysis::~ConversionAnalysis() = default;

std::vector<Complex> ConversionAnalysis::fourier_coeffs(const PeriodicWave& w) const {
  // W_m = (1/M) sum_n w[n] e^{-j 2 pi m n / M}; FFT gives all m in one pass.
  std::vector<Complex> data(w.begin(), w.end());
  mathx::fft(data);
  const int m_max = 2 * opts_.harmonics;
  const int big_m = static_cast<int>(w.size());
  std::vector<Complex> coeffs(static_cast<std::size_t>(2 * m_max + 1));
  for (int m = -m_max; m <= m_max; ++m) {
    const int idx = ((m % big_m) + big_m) % big_m;
    coeffs[static_cast<std::size_t>(m + m_max)] =
        data[static_cast<std::size_t>(idx)] / static_cast<double>(big_m);
  }
  return coeffs;
}

ConversionAnalysis::Factored::Factored(const ConversionAnalysis* an, double f_base)
    : an_(an), f_base_(f_base) {
  const ConversionAnalysis& self = *an;
  const int k_hi = self.opts_.harmonics;
  const int n = self.n_unknowns_;
  const int block_count_ = self.block_count_;
  const ConversionOptions& opts_ = self.opts_;
  const LptvCircuit& ckt_ = self.ckt_;
  auto fourier_coeffs = [&self](const PeriodicWave& w) { return self.fourier_coeffs(w); };
  const std::size_t dim = static_cast<std::size_t>(block_count_ * n);
  mathx::TripletMatrix<Complex> a(dim, dim);
  mathx::TripletMatrix<Complex> at(dim, dim);

  auto unknown = [&](int k, int node) -> int {
    if (node == 0) return -1;
    return (k + k_hi) * n + (node - 1);
  };
  auto add = [&](int row, int col, Complex v) {
    if (row < 0 || col < 0 || v == Complex{}) return;
    a.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
    at.add(static_cast<std::size_t>(col), static_cast<std::size_t>(row), v);
  };
  auto stamp_g_block = [&](int na, int nb, int krow, int kcol, Complex g) {
    add(unknown(krow, na), unknown(kcol, na), g);
    add(unknown(krow, nb), unknown(kcol, nb), g);
    add(unknown(krow, na), unknown(kcol, nb), -g);
    add(unknown(krow, nb), unknown(kcol, na), -g);
  };
  auto stamp_gm_block = [&](int p, int m, int cp, int cm, int krow, int kcol, Complex gm) {
    add(unknown(krow, p), unknown(kcol, cp), gm);
    add(unknown(krow, p), unknown(kcol, cm), -gm);
    add(unknown(krow, m), unknown(kcol, cp), -gm);
    add(unknown(krow, m), unknown(kcol, cm), gm);
  };

  // Static elements: block-diagonal.
  for (int k = -k_hi; k <= k_hi; ++k) {
    const double f_k = f_base + k * opts_.f_lo;
    const Complex jw(0.0, kTwoPi * f_k);
    for (const auto& e : ckt_.static_g()) stamp_g_block(e.a, e.b, k, k, e.g);
    for (const auto& e : ckt_.static_c()) stamp_g_block(e.a, e.b, k, k, jw * e.c);
    for (const auto& e : ckt_.static_gm())
      stamp_gm_block(e.p, e.m, e.cp, e.cm, k, k, e.gm);
    for (const auto& e : ckt_.static_cm())
      stamp_gm_block(e.p, e.m, e.cp, e.cm, k, k, jw * e.c);
    // Tiny gmin keeps isolated sidebands solvable.
    for (int node = 1; node <= n; ++node) add(unknown(k, node), unknown(k, node), 1e-12);
  }

  // Periodic elements: G_{k-l} couples sideband l into equation k.
  for (const auto& e : ckt_.periodic_g()) {
    const auto cf = fourier_coeffs(e.g);
    const int m_max = 2 * k_hi;
    for (int k = -k_hi; k <= k_hi; ++k)
      for (int l = -k_hi; l <= k_hi; ++l) {
        const int m = k - l;
        if (m < -m_max || m > m_max) continue;
        stamp_g_block(e.a, e.b, k, l, cf[static_cast<std::size_t>(m + m_max)]);
      }
  }
  for (const auto& e : ckt_.periodic_gm()) {
    const auto cf = fourier_coeffs(e.gm);
    const int m_max = 2 * k_hi;
    for (int k = -k_hi; k <= k_hi; ++k)
      for (int l = -k_hi; l <= k_hi; ++l) {
        const int m = k - l;
        if (m < -m_max || m > m_max) continue;
        stamp_gm_block(e.p, e.m, e.cp, e.cm, k, l, cf[static_cast<std::size_t>(m + m_max)]);
      }
  }

  sys_ = std::make_shared<System>(an, mathx::CscMatrix<Complex>(a),
                                  mathx::CscMatrix<Complex>(at));
}

ConversionAnalysis::Factored::~Factored() = default;
ConversionAnalysis::Factored::Factored(Factored&&) noexcept = default;
ConversionAnalysis::Factored& ConversionAnalysis::Factored::operator=(
    Factored&&) noexcept = default;

ConversionAnalysis::Factored ConversionAnalysis::factor(double f_base) const {
  return Factored(this, f_base);
}

PacSolution ConversionAnalysis::Factored::solve_current_injection(int p, int m,
                                                                  int k_in) const {
  RFMIX_OBS_SCOPED_TIMER("lptv.conversion.solve");
  RFMIX_OBS_TRACE_SCOPE("lptv.conversion.solve");
  RFMIX_OBS_COUNT("lptv.conversion.solves");
  const ConversionAnalysis& self = *an_;
  if (std::abs(k_in) > self.opts_.harmonics)
    throw std::invalid_argument("k_in outside retained harmonics");
  const int n = self.n_unknowns_;
  std::vector<Complex> b(static_cast<std::size_t>(self.block_count_ * n), Complex{});
  auto unknown = [&](int k, int node) -> int {
    if (node == 0) return -1;
    return (k + self.opts_.harmonics) * n + (node - 1);
  };
  // Unit current from p to m through the source: leaves p, enters m.
  const int up = unknown(k_in, p);
  const int um = unknown(k_in, m);
  if (up >= 0) b[static_cast<std::size_t>(up)] -= 1.0;
  if (um >= 0) b[static_cast<std::size_t>(um)] += 1.0;

  PacSolution sol;
  sol.harmonics = self.opts_.harmonics;
  sol.f_base = f_base_;
  sol.f_lo = self.opts_.f_lo;
  sol.num_nodes = self.ckt_.num_nodes();
  sol.x = sys_->forward().solve(b);
  return sol;
}

PacSolution ConversionAnalysis::solve_current_injection(double f_base, int p, int m,
                                                        int k_in) const {
  return factor(f_base).solve_current_injection(p, m, k_in);
}

Complex ConversionAnalysis::conversion_transimpedance(double f_base, int in_p, int in_m,
                                                      int k_in, int out_p, int out_m,
                                                      int k_out) const {
  const PacSolution sol = solve_current_injection(f_base, in_p, in_m, k_in);
  return sol.vd(k_out, out_p, out_m);
}

LptvNoiseResult ConversionAnalysis::Factored::output_noise(int out_p, int out_m) const {
  RFMIX_OBS_SCOPED_TIMER("lptv.conversion.noise");
  RFMIX_OBS_TRACE_SCOPE("lptv.conversion.noise");
  RFMIX_OBS_COUNT("lptv.conversion.noise_solves");
  const ConversionAnalysis& self = *an_;
  const double f_base = f_base_;
  const int n = self.n_unknowns_;
  const int k_hi = self.opts_.harmonics;
  auto unknown = [&](int k, int node) -> int {
    if (node == 0) return -1;
    return (k + k_hi) * n + (node - 1);
  };

  // Adjoint solve: A^T y = e_out with e_out selecting the differential
  // output at sideband 0.
  std::vector<Complex> e(static_cast<std::size_t>(self.block_count_ * n), Complex{});
  const int up = unknown(0, out_p);
  const int um = unknown(0, out_m);
  if (up >= 0) e[static_cast<std::size_t>(up)] += 1.0;
  if (um >= 0) e[static_cast<std::size_t>(um)] -= 1.0;
  const std::vector<Complex> y = sys_->adjoint().solve(e);

  // Transfer from a unit current injected (p -> m) at sideband k to the
  // output: T_k = y[m,k] - y[p,k] (rhs convention: -1 at p, +1 at m).
  auto transfer = [&](int k, int p, int m) -> Complex {
    Complex t{};
    const int ip = unknown(k, p);
    const int im = unknown(k, m);
    if (ip >= 0) t -= y[static_cast<std::size_t>(ip)];
    if (im >= 0) t += y[static_cast<std::size_t>(im)];
    return t;
  };

  LptvNoiseResult result;
  result.f_base = f_base;

  // Stationary sources: uncorrelated across sidebands; PSD evaluated at the
  // absolute sideband frequency.
  for (const auto& src : self.ckt_.stationary_noise()) {
    double psd_out = 0.0;
    for (int k = -k_hi; k <= k_hi; ++k) {
      const double f_k = std::abs(f_base + k * self.opts_.f_lo);
      psd_out += std::norm(transfer(k, src.p, src.m)) * src.psd(f_k);
    }
    result.total_output_psd_v2_hz += psd_out;
    result.contributions.push_back({src.label, psd_out});
  }

  // Cyclostationary white sources: S_out = sum_{k,l} T_k T_l^* S_{k-l},
  // where S_m are the Fourier coefficients of the periodic intensity.
  for (const auto& src : self.ckt_.cyclo_noise()) {
    const auto cf = self.fourier_coeffs(src.s);
    const int m_max = 2 * k_hi;
    Complex acc{};
    for (int k = -k_hi; k <= k_hi; ++k) {
      const Complex tk = transfer(k, src.p, src.m);
      if (tk == Complex{}) continue;
      for (int l = -k_hi; l <= k_hi; ++l) {
        const int m = k - l;
        if (m < -m_max || m > m_max) continue;
        const Complex tl = transfer(l, src.p, src.m);
        acc += tk * std::conj(tl) * cf[static_cast<std::size_t>(m + m_max)];
      }
    }
    // The bilinear form is Hermitian; the imaginary part is numerical noise.
    const double psd_out = std::max(acc.real(), 0.0);
    result.total_output_psd_v2_hz += psd_out;
    result.contributions.push_back({src.label, psd_out});
  }

  return result;
}

LptvNoiseResult ConversionAnalysis::output_noise(double f_base, int out_p,
                                                 int out_m) const {
  return factor(f_base).output_noise(out_p, out_m);
}

}  // namespace rfmix::lptv
