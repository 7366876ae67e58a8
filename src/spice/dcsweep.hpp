// DC sweep analysis: step a source through a range of values, warm-starting
// each Newton solve from the previous solution — the standard way to trace
// I-V curves and transfer characteristics.
//
// The sweep is cut into fixed chunks of kDcSweepChunk points; warm starts
// chain only within a chunk and every chunk begins cold. That makes chunks
// independent of one another, so the parallel overload (which runs chunks
// concurrently on private circuit copies) is bit-identical to the serial
// one at any thread count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/devices_sources.hpp"
#include "spice/op.hpp"

namespace rfmix::spice {

struct DcSweepResult {
  std::vector<double> values;      // swept source values
  std::vector<Solution> solutions; // operating point at each value

  std::size_t size() const { return values.size(); }

  /// Node voltage trace across the sweep.
  std::vector<double> v(NodeId n) const {
    std::vector<double> out;
    out.reserve(solutions.size());
    for (const auto& s : solutions) out.push_back(s.v(n));
    return out;
  }

  /// Branch current trace of a voltage source (by pointer).
  std::vector<double> source_current(const VoltageSource& src) const {
    std::vector<double> out;
    out.reserve(solutions.size());
    for (const auto& s : solutions) out.push_back(src.current(s));
    return out;
  }
};

/// Points per warm-start chain; chosen small enough that a cold restart at
/// a chunk head converges from the homotopy machinery, large enough that
/// chunk startup cost amortizes.
inline constexpr int kDcSweepChunk = 8;

/// Sweep the DC value of `source` over [start, stop] in `points` steps.
/// The source's waveform is replaced by DC values during the sweep and
/// restored afterwards. Throws ConvergenceError if any point fails after
/// the warm start and a cold restart. Runs chunks serially on this one
/// circuit; use the factory overload to run them concurrently.
DcSweepResult dc_sweep(Circuit& ckt, VoltageSource& source, double start, double stop,
                       int points, const NewtonOptions& opts = {});

/// A private circuit plus a pointer to its swept source, built fresh for
/// each parallel chunk so chunks never share mutable device state.
struct DcSweepInstance {
  std::shared_ptr<Circuit> circuit;
  VoltageSource* source = nullptr;  // must belong to `circuit`
};

using DcSweepFactory = std::function<DcSweepInstance()>;

/// Parallel sweep: chunks of kDcSweepChunk points run concurrently on the
/// runtime pool, each on a circuit freshly built by `make`. Results are
/// bit-identical to the serial overload applied to the same circuit.
DcSweepResult dc_sweep(const DcSweepFactory& make, double start, double stop,
                       int points, const NewtonOptions& opts = {});

}  // namespace rfmix::spice
