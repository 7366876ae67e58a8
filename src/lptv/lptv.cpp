#include "lptv/lptv.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "mathx/fft.hpp"
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

void LptvCircuit::note_node(int n) {
  if (n < 0) {
    std::string msg = "LPTV node ";
    msg += std::to_string(n);
    throw std::invalid_argument(msg + " is negative (node ids are >= 0; 0 is ground)");
  }
  max_node_ = std::max(max_node_, n);
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

// ---------------------------------------------------------------------------

namespace {

/// The solve side's one range check: `node` must be one of the circuit's
/// `num_nodes` nodes and sideband k one of the 2K+1 retained.
void check_node_and_sideband(int node, int k, int num_nodes, int harmonics) {
  const bool node_ok = node >= 0 && node < num_nodes;
  if (node_ok && k >= -harmonics && k <= harmonics) return;
  std::string msg = node_ok ? "sideband " : "LPTV node ";
  msg += std::to_string(node_ok ? k : node);
  msg += " outside [";
  msg += std::to_string(node_ok ? -harmonics : 0);
  msg += ", ";
  msg += std::to_string(node_ok ? harmonics : num_nodes - 1);
  throw std::invalid_argument(msg + "]");
}

/// Elimination position of each node (-1 for ground): the non-ground nodes
/// stably sorted by their degree in the node coupling graph, ties keeping
/// the lower id first. Two nodes are linked when one element's terminals
/// {p, m, cp, cm} touch both; ground links nothing. A hub such as the
/// N-path RF node, which every switch touches, goes last, so eliminating
/// the nodes around it fills nothing outside its block.
std::vector<int> degree_positions(const LptvCircuit& ckt) {
  std::vector<std::pair<int, int>> links;
  const auto link = [&](const auto& e) {
    const int t[4] = {e.p, e.m, e.cp, e.cm};
    for (const int a : t)
      for (const int b : t)
        if (a != 0 && a < b) links.emplace_back(a, b);
  };
  for (const auto& e : ckt.static_gm()) link(e);
  for (const auto& e : ckt.static_cm()) link(e);
  for (const auto& e : ckt.periodic_gm()) link(e);
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());

  const std::size_t nodes = static_cast<std::size_t>(ckt.num_nodes());
  std::vector<int> degree(nodes, 0);
  for (const auto& [a, b] : links) {
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  std::vector<int> order(nodes - 1);
  std::iota(order.begin(), order.end(), 1);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return degree[static_cast<std::size_t>(a)] < degree[static_cast<std::size_t>(b)];
  });
  std::vector<int> pos(nodes, -1);
  for (std::size_t i = 0; i < order.size(); ++i)
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  return pos;
}

}  // namespace

Complex PacSolution::v(int k, int node) const {
  check_node_and_sideband(node, k, num_nodes, harmonics);
  if (node == 0) return {};
  const int n_unknowns = num_nodes - 1;
  const int block = k + harmonics;
  return x[static_cast<std::size_t>(block * n_unknowns + (node - 1))];
}

ConversionAnalysis::ConversionAnalysis(const LptvCircuit& ckt, ConversionOptions opts)
    : ckt_(ckt), opts_(opts) {
  if (opts_.harmonics < 1) throw std::invalid_argument("harmonics must be >= 1");
  if (ckt_.num_samples() < 4 * opts_.harmonics + 2)
    throw std::invalid_argument(
        "num_samples too small for requested harmonic count (need >= 4K+2)");
  n_unknowns_ = ckt_.num_nodes() - 1;
  block_count_ = 2 * opts_.harmonics + 1;
  if (n_unknowns_ < 1) throw std::invalid_argument("LPTV circuit has no nodes");
  pos_ = degree_positions(ckt_);
  for (const auto& e : ckt_.periodic_gm()) gm_coeffs_.push_back(fourier_coeffs(e.gm));
  for (const auto& src : ckt_.cyclo_noise()) noise_coeffs_.push_back(fourier_coeffs(src.s));
}

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

mathx::TripletMatrix<Complex> ConversionAnalysis::block_system(double f_base) const {
  const int k_hi = opts_.harmonics;
  const int n = n_unknowns_;
  const std::size_t dim = static_cast<std::size_t>(block_count_ * n);
  mathx::TripletMatrix<Complex> a(dim, dim);

  auto add = [&](int row, int col, Complex v) {
    if (row < 0 || col < 0 || v == Complex{}) return;
    a.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
  };
  // Diagonal entries first, so a two-terminal element (cp = p, cm = m)
  // stamps (a,a), (b,b), (a,b), (b,a).
  auto stamp_gm_block = [&](int p, int m, int cp, int cm, int krow, int kcol, Complex gm) {
    add(unknown(krow, p), unknown(kcol, cp), gm);
    add(unknown(krow, m), unknown(kcol, cm), gm);
    add(unknown(krow, p), unknown(kcol, cm), -gm);
    add(unknown(krow, m), unknown(kcol, cp), -gm);
  };

  // Static elements: block-diagonal.
  for (int k = -k_hi; k <= k_hi; ++k) {
    const Complex jw(0.0, kTwoPi * (f_base + k * opts_.f_lo));
    for (const auto& e : ckt_.static_gm())
      stamp_gm_block(e.p, e.m, e.cp, e.cm, k, k, e.gm);
    for (const auto& e : ckt_.static_cm())
      stamp_gm_block(e.p, e.m, e.cp, e.cm, k, k, jw * e.c);
    // Tiny gmin keeps isolated sidebands solvable.
    for (int node = 1; node <= n; ++node) add(unknown(k, node), unknown(k, node), 1e-12);
  }

  // Periodic elements: G_{k-l} couples sideband l into equation k; cf
  // holds every k - l in [-2K, 2K], at index k - l + 2K.
  for (std::size_t i = 0; i < gm_coeffs_.size(); ++i) {
    const auto& e = ckt_.periodic_gm()[i];
    const auto& cf = gm_coeffs_[i];
    for (int k = -k_hi; k <= k_hi; ++k)
      for (int l = -k_hi; l <= k_hi; ++l)
        stamp_gm_block(e.p, e.m, e.cp, e.cm, k, l,
                       cf[static_cast<std::size_t>(k - l + 2 * k_hi)]);
  }

  return a;
}

std::vector<Complex> ConversionAnalysis::unit_injection(int p, int m, int k) const {
  check_node_and_sideband(p, k, ckt_.num_nodes(), opts_.harmonics);
  check_node_and_sideband(m, k, ckt_.num_nodes(), opts_.harmonics);
  std::vector<Complex> b(static_cast<std::size_t>(block_count_ * n_unknowns_), Complex{});
  if (p != 0) b[static_cast<std::size_t>(unknown(k, p))] -= 1.0;
  if (m != 0) b[static_cast<std::size_t>(unknown(k, m))] += 1.0;
  return b;
}

ConversionAnalysis::Factored::Factored(const ConversionAnalysis* an, double f_base)
    : an_(an), f_base_(f_base) {
  RFMIX_OBS_SCOPED_TIMER("lptv.conversion.factor");
  RFMIX_OBS_TRACE_SCOPE("lptv.conversion.factor");
  // Analyzed cold, sharing nothing across base frequencies (docs/lptv.md).
  // Counted before the attempt, so a singular system counts too.
  RFMIX_OBS_COUNT("lptv.lu.factorizations");
  RFMIX_OBS_COUNT("lptv.lu.analyze");
  lu_ = mathx::SparseLu<Complex>(mathx::CscMatrix<Complex>(an->block_system(f_base)));
}

PacSolution ConversionAnalysis::Factored::solve_current_injection(int p, int m,
                                                                  int k_in) const {
  RFMIX_OBS_SCOPED_TIMER("lptv.conversion.solve");
  RFMIX_OBS_TRACE_SCOPE("lptv.conversion.solve");
  RFMIX_OBS_COUNT("lptv.conversion.solves");
  const ConversionAnalysis& self = *an_;
  PacSolution sol;
  sol.harmonics = self.opts_.harmonics;
  sol.f_base = f_base_;
  sol.f_lo = self.opts_.f_lo;
  sol.num_nodes = self.ckt_.num_nodes();
  // Gather the node-major solve into PacSolution's sideband-major layout.
  const std::vector<Complex> y = lu_.solve(self.unit_injection(p, m, k_in));
  sol.x.resize(y.size());
  const int n = self.n_unknowns_;
  for (int k = -sol.harmonics; k <= sol.harmonics; ++k)
    for (int node = 1; node <= n; ++node)
      sol.x[static_cast<std::size_t>((k + sol.harmonics) * n + (node - 1))] =
          y[static_cast<std::size_t>(self.unknown(k, node))];
  return sol;
}

LptvNoiseResult ConversionAnalysis::Factored::output_noise(int out_p, int out_m) const {
  RFMIX_OBS_SCOPED_TIMER("lptv.conversion.noise");
  RFMIX_OBS_TRACE_SCOPE("lptv.conversion.noise");
  RFMIX_OBS_COUNT("lptv.conversion.noise_solves");
  const ConversionAnalysis& self = *an_;
  const double f_base = f_base_;
  const int k_hi = self.opts_.harmonics;

  // Adjoint solve with the forward LU: A^T y = e_out, where e_out selects
  // the differential output at sideband 0 (+1 at out_p, -1 at out_m: the
  // right-hand side of a unit current from out_m to out_p).
  const std::vector<Complex> y = lu_.solve_transposed(self.unit_injection(out_m, out_p, 0));

  // Transfer from a unit current injected (p -> m) at sideband k to the
  // output: T_k = y[m,k] - y[p,k] (rhs convention: -1 at p, +1 at m).
  auto transfer = [&](int k, int p, int m) -> Complex {
    Complex t{};
    if (p != 0) t -= y[static_cast<std::size_t>(self.unknown(k, p))];
    if (m != 0) t += y[static_cast<std::size_t>(self.unknown(k, m))];
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
  for (std::size_t i = 0; i < self.noise_coeffs_.size(); ++i) {
    const auto& src = self.ckt_.cyclo_noise()[i];
    const auto& cf = self.noise_coeffs_[i];
    Complex acc{};
    for (int k = -k_hi; k <= k_hi; ++k) {
      const Complex tk = transfer(k, src.p, src.m);
      if (tk == Complex{}) continue;
      for (int l = -k_hi; l <= k_hi; ++l)
        acc += tk * std::conj(transfer(l, src.p, src.m)) *
               cf[static_cast<std::size_t>(k - l + 2 * k_hi)];
    }
    // The bilinear form is Hermitian; the imaginary part is numerical noise.
    const double psd_out = std::max(acc.real(), 0.0);
    result.total_output_psd_v2_hz += psd_out;
    result.contributions.push_back({src.label, psd_out});
  }

  return result;
}

}  // namespace rfmix::lptv
