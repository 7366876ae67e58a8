// GEN-SCALE: elaboration scaling of generated receiver arrays.
//
// Renders rx_array decks at geometrically increasing element counts (the
// largest past 100k devices), and times each stage separately: template
// rendering, parser elaboration (.subckt compile-once/replay-per-instance),
// and the DC operating-point solve. Reports the log-log scaling exponents
// of elaboration time and of solve time vs device count, and fails when
// either leaves linear: elaboration above 1.35 (structural sharing, not the
// naive re-tokenize-per-instance blowup) or the solve above 1.2 (sparse LU
// analysis linear in the factor work, not quadratic in the unknowns).
//
// --smoke runs only the largest size against a wall-clock budget
// (--budget-ms, default 60000): the CI Release lane's 100k-device
// regression tripwire.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/templates.hpp"
#include "obs/cli.hpp"
#include "rf/table.hpp"
#include "spice/circuit.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"

using namespace rfmix;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ScalePoint {
  int elements = 0;
  std::size_t devices = 0;
  double render_ms = 0.0;
  double elaborate_ms = 0.0;
  double solve_ms = 0.0;
};

ScalePoint run_size(int elements, bool solve) {
  gen::GenSpec spec;
  spec.template_id = "rx_array";
  spec.elements = elements;
  spec.paths = 4;
  spec.sections = 6;
  spec.zbb_c = 2e-12;  // caps on every ladder section: 58 devices/element
  spec.mismatch = 0.05;
  spec.seed = 1;

  ScalePoint pt;
  pt.elements = elements;
  pt.devices = gen::device_count(spec);

  const auto t_render = std::chrono::steady_clock::now();
  const std::string deck = gen::render_netlist(spec);
  pt.render_ms = ms_since(t_render);

  const auto t_parse = std::chrono::steady_clock::now();
  spice::Circuit ckt = spice::parse_netlist(deck);
  pt.elaborate_ms = ms_since(t_parse);
  if (ckt.devices().size() != pt.devices) {
    throw std::runtime_error("device count mismatch at " + std::to_string(elements));
  }

  if (solve) {
    // Best of three: the smallest solve takes a few ms, so one wall-clock
    // sample would let host noise swing the solve-exponent gate.
    pt.solve_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t_solve = std::chrono::steady_clock::now();
      const spice::Solution op = spice::dc_operating_point(ckt);
      pt.solve_ms = std::min(pt.solve_ms, ms_since(t_solve));
      (void)op;
    }
  }
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchCli cli(argc, argv, "bench_gen_scale");
  std::ostream& out = cli.out();

  bool smoke = false;
  double budget_ms = 60000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc)
      budget_ms = std::stod(argv[i + 1]);
  }

  if (!cli.csv())
    out << "=== GEN-SCALE: rx_array elaboration scaling (58 devices/element) ===\n\n";

  // 2048 elements * 58 = 118,784 devices: the 100k+ acceptance point.
  const std::vector<int> sizes =
      smoke ? std::vector<int>{2048} : std::vector<int>{64, 256, 1024, 2048};

  std::vector<ScalePoint> points;
  const auto t_total = std::chrono::steady_clock::now();
  for (const int elements : sizes)
    points.push_back(run_size(elements, /*solve=*/true));
  const double total_ms = ms_since(t_total);

  rf::ConsoleTable table(
      {"elements", "devices", "render_ms", "elaborate_ms", "solve_ms", "us/device"});
  for (const ScalePoint& pt : points) {
    table.add_row({rf::ConsoleTable::num(double(pt.elements), 0),
               rf::ConsoleTable::num(double(pt.devices), 0),
               rf::ConsoleTable::num(pt.render_ms, 1),
               rf::ConsoleTable::num(pt.elaborate_ms, 1),
               rf::ConsoleTable::num(pt.solve_ms, 1),
               rf::ConsoleTable::num(1e3 * pt.elaborate_ms / double(pt.devices), 3)});
  }

  // Log-log slope of a stage's time vs device count across the sweep:
  // 1.0 = linear, 2.0 = quadratic blowup.
  auto slope = [&](double ScalePoint::*ms) {
    if (points.size() < 2) return 1.0;
    const ScalePoint& a = points.front();
    const ScalePoint& b = points.back();
    return std::log(b.*ms / a.*ms) / std::log(double(b.devices) / double(a.devices));
  };
  const double exponent = slope(&ScalePoint::elaborate_ms);
  const double solve_exponent = slope(&ScalePoint::solve_ms);

  const ScalePoint& big = points.back();
  if (!cli.csv()) {
    table.print(out);
    if (!smoke)
      out << "\nelaboration scaling exponent (log-log slope): "
          << rf::ConsoleTable::num(exponent, 2) << " (1 = linear)\n"
          << "solve scaling exponent (log-log slope): "
          << rf::ConsoleTable::num(solve_exponent, 2) << " (1 = linear)\n";
    out << "largest: " << big.devices << " devices, elaborate "
        << rf::ConsoleTable::num(big.elaborate_ms, 1) << " ms, solve "
        << rf::ConsoleTable::num(big.solve_ms, 1) << " ms\n";
  }

  cli.set_config("smoke", smoke ? 1.0 : 0.0);
  cli.set_config("budget_ms", budget_ms);
  cli.add_metric("devices_max", double(big.devices));
  cli.add_metric("render_ms", big.render_ms);
  cli.add_metric("elaborate_ms", big.elaborate_ms);
  cli.add_metric("solve_ms", big.solve_ms);
  cli.add_metric("total_ms", total_ms);
  cli.add_metric("scaling_exponent", exponent);
  cli.add_metric("solve_exponent", solve_exponent);

  // Exit nonzero on a quadratic elaborator or solver, or a blown budget.
  if (big.devices < 100000) {
    out << "GEN-SCALE FAILED: largest size only " << big.devices << " devices\n";
    cli.finish();
    return 1;
  }
  if (total_ms > budget_ms) {
    out << "GEN-SCALE FAILED: " << total_ms << " ms exceeds budget " << budget_ms
        << " ms\n";
    cli.finish();
    return 1;
  }
  if (!smoke && exponent > 1.35) {
    out << "GEN-SCALE FAILED: elaboration scaling exponent " << exponent
        << " (expected near-linear)\n";
    cli.finish();
    return 1;
  }
  if (!smoke && solve_exponent > 1.2) {
    out << "GEN-SCALE FAILED: solve scaling exponent " << solve_exponent
        << " (expected near-linear)\n";
    cli.finish();
    return 1;
  }
  return cli.finish();
}
