// gen_array_op: one huge solve. An operation renders, elaborates and
// DC-solves a 2048-element rx_array (118,784 devices); the seed becomes
// the GenSpec mismatch seed. The traced pass splits the solve into its
// stages at the operating point and adds a 512-element solve for the
// scaling exponents.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "gen/templates.hpp"
#include "mathx/sparse.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/circuit.hpp"
#include "spice/mna.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfmix;

constexpr int kElements = 2048;
constexpr int kSmallElements = 512;    // only for the scaling exponents
constexpr double kGmin = 1e-12;        // NewtonOptions default
constexpr double kMaxResidualA = 1e-6;
// One cold and one warm solve at least; a run may outlast --seconds.
constexpr int kMinOps = 2;

gen::GenSpec array_spec(int elements, std::uint64_t seed) {
  gen::GenSpec spec;
  spec.template_id = "rx_array";
  spec.elements = elements;
  spec.paths = 4;
  spec.sections = 6;
  spec.zbb_c = 2e-12;  // caps on every ladder section: 58 devices/element
  spec.mismatch = 0.05;
  spec.seed = seed;
  return spec;
}

struct Solved {
  spice::Circuit ckt;
  spice::Solution sol;
  double render_s = 0.0;
  double parse_s = 0.0;
  double op_s = 0.0;
  double total_s() const { return render_s + parse_s + op_s; }
};

Solved array_op(const gen::GenSpec& spec) {
  Solved s;
  std::string deck;
  s.render_s = timed("gen.render_netlist", [&] { deck = gen::render_netlist(spec); });
  s.parse_s = timed("spice.parse_netlist", [&] { s.ckt = spice::parse_netlist(deck); });
  s.op_s = timed("spice.dc_operating_point", [&] { s.sol = spice::dc_operating_point(s.ckt); });
  return s;
}

void assemble(const Solved& s, mathx::TripletMatrix<double>& g, mathx::VectorD& b) {
  g.clear();
  b.assign(static_cast<std::size_t>(s.ckt.layout().size()), 0.0);
  spice::assemble_real(s.ckt, s.sol, spice::StampParams{}, kGmin, g, b);
}

/// Device count, and max |G x - b| of the Newton system at the solution.
double check_solution(const gen::GenSpec& spec, const Solved& s, Result& r) {
  if (s.ckt.devices().size() != gen::device_count(spec))
    r.fail("device count " + std::to_string(s.ckt.devices().size()) + " != " +
           std::to_string(gen::device_count(spec)));
  const std::size_t n = static_cast<std::size_t>(s.ckt.layout().size());
  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b;
  assemble(s, g, b);
  const std::vector<double> gx = mathx::CscMatrix<double>(g).multiply(s.sol.raw());
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) residual = std::max(residual, std::abs(gx[i] - b[i]));
  if (!(residual <= kMaxResidualA))
    r.fail("op residual " + std::to_string(residual) + " A exceeds " +
           std::to_string(kMaxResidualA));
  return residual;
}

template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

/// Stage costs of one Newton iteration at the op point, each multiplied by
/// its obs count to check they account for spice.op_s.
void solve_stages(const Solved& s, const Telemetry& d, Result& r) {
  constexpr int kReps = 3;
  const std::size_t n = static_cast<std::size_t>(s.ckt.layout().size());
  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b;
  const double assemble_ms = median_ms(kReps, [&] {
    timed("spice.assemble_real", [&] { assemble(s, g, b); });
  });
  mathx::TripletCscMap<double> map;
  mathx::CscMatrix<double> csc;
  const double build_ms = median_ms(kReps, [&] {
    timed("mathx.TripletCscMap.build", [&] { map = {}; map.build(g); });
  });
  const double fill_ms = median_ms(kReps, [&] {
    timed("mathx.TripletCscMap.fill", [&] { map.fill(g, csc); });
  });
  mathx::SparseLuSymbolic<double> sym;
  mathx::SparseLu<double> lu;
  const double analyze_ms = median_ms(1, [&] {
    timed("mathx.SparseLu.analyze", [&] { lu = mathx::SparseLu<double>(csc, sym); });
  });
  bool refactored = true;
  const double refactor_ms = median_ms(kReps, [&] {
    timed("mathx.SparseLu.refactor_from",
          [&] { refactored = lu.refactor_from(sym, csc) && refactored; });
  });
  if (!refactored) r.fail("refactor at the op point fell back");
  double checksum = 0.0;
  const double solve_ms = median_ms(kReps, [&] {
    timed("mathx.SparseLu.solve", [&] { checksum += lu.solve(b)[0]; });
  });
  if (!std::isfinite(checksum)) r.fail("op-point solve not finite");

  r.add("spice.assemble_ms", assemble_ms, "ms");
  r.add("mathx.csc_ms", build_ms + fill_ms, "ms");
  r.add("mathx.lu_analyze_ms", analyze_ms, "ms");
  r.add("mathx.lu_refactor_ms", refactor_ms, "ms");
  r.add("mathx.lu_solve_ms", solve_ms, "ms");
  r.add("mathx.lu_nnz", static_cast<double>(sym.l_capacity() + sym.u_capacity()), "count");
  // Each Newton iteration assembles, fills the CSC values and solves; each
  // factorization either analyzes (building the map first) or refactors.
  const double iters = d.count("spice.newton.iterations");
  const double analyzes = d.count("spice.lu.analyze");
  const double stage_ms = iters * (assemble_ms + fill_ms + solve_ms) +
                          analyzes * (build_ms + analyze_ms) +
                          d.count("spice.lu.refactor") * refactor_ms;
  r.add("spice.op.stage_share", stage_ms * 1e-3 / s.op_s, "ratio");
}

}  // namespace

void setup_gen_array_op(std::uint64_t seed) {
  runtime::ThreadPool::global();
  Rng rng(mix_seed(seed, 2));
  gen::validate(array_spec(kElements, rng.next()));
}

Result run_gen_array_op(const Options& opt) {
  Result r;
  Rng rng(mix_seed(opt.seed, 2));
  if (!opt.trace) {
    const double setup_s = library_setup_s(opt, kSetupProbes);
    setup_gen_array_op(opt.seed);
    gen::GenSpec spec;
    std::vector<double> cold_ms, warm_ms;
    double cpu_s = 0.0;
    const SpeedSampler sampler;
    const auto start = Clock::now();
    for (int i = 0; i < kMinOps || seconds_since(start) < opt.seconds; ++i) {
      if (is_cold_op(i)) spec = array_spec(kElements, rng.next());
      run_op(r, [&] {
        Solved s;
        double probe_us = 0.0;
        const double op_cpu_s = ref_cpu_timed([&] { s = array_op(spec); }, &probe_us);
        cpu_s += op_cpu_s;
        record_op(i, op_cpu_s * 1e3, s.total_s() * 1e3, probe_us, cold_ms, warm_ms);
        check_solution(spec, s, r);
      });
    }
    add_end_to_end(r, setup_s, peak_rss_mb_self(), cold_ms, warm_ms,
                   static_cast<double>(r.attempted), cpu_s);
    return r;
  }

  // Traced: the overhead pairs over one spec; stage costs (wall times) at
  // the last traced solution; a 512-element solve for the exponents.
  const std::uint64_t mismatch_seed = rng.next();
  const gen::GenSpec spec = array_spec(kElements, mismatch_seed);
  for (int e = 0; e < kElements; ++e) {
    const gen::ElementDraw draw = gen::element_draw(spec, e);
    r.inputs.add(draw.switch_ron);
    r.inputs.add(draw.zbb_r);
  }
  Solved s;
  Telemetry d;
  double residual_a = 0.0;
  std::optional<SpeedSampler> sampler(std::in_place);
  const double overhead_pct = trace_overhead_pct([&](bool traced) {
    // Every operation, traced or not, starts with the previous solution
    // freed, so both sides of a pair see the same heap.
    s = Solved{};
    double op_cpu_s = 0.0;
    run_op(r, [&] {
      const Telemetry before = Telemetry::now();
      Solved op;
      op_cpu_s = ref_cpu_timed([&] { timed("array_op", [&] { op = array_op(spec); }); });
      if (traced) d = Telemetry::now().since(before);
      const double residual = check_solution(spec, op, r);
      if (traced) {
        residual_a = residual;
        s = std::move(op);
      }
    });
    return op_cpu_s;
  });
  sampler.reset();
  obs::trace::enable();
  run_op(r, [&] {
    r.add("array_op_s", s.total_s(), "s");
    r.add("trace.overhead_pct", overhead_pct, "%");
    r.add("gen.render_s", s.render_s, "s");
    r.add("spice.parse_s", s.parse_s, "s");
    r.add("spice.op_s", s.op_s, "s");
    r.add("spice.op.residual_a", residual_a, "A");
    add_counter_metrics(d, r);
    timed("solve_stages", [&] { solve_stages(s, d, r); });

    const gen::GenSpec small_spec = array_spec(kSmallElements, mismatch_seed);
    const Solved small = array_op(small_spec);
    check_solution(small_spec, small, r);
    const double size_ratio = static_cast<double>(s.ckt.devices().size()) /
                              static_cast<double>(small.ckt.devices().size());
    r.add("mathx.solve_exponent", std::log(s.op_s / small.op_s) / std::log(size_ratio),
          "slope");
    r.add("gen.elaborate_exponent", std::log(s.parse_s / small.parse_s) / std::log(size_ratio),
          "slope");
  });
  obs::trace::disable();
  return r;
}

}  // namespace perfbench
