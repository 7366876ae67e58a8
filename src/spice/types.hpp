// Fundamental types shared across the circuit simulator: node handles,
// solution vectors, and unknown-vector layout.
//
// MNA unknown ordering: node voltages for nodes 1..N-1 (ground, node 0, is
// eliminated) followed by branch currents for devices that need them
// (voltage sources, inductors, VCVS, CCVS).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace rfmix::spice {

/// Index into a Circuit's node table. Node 0 is always ground.
using NodeId = int;

inline constexpr NodeId kGround = 0;

/// Layout of the MNA unknown vector.
struct MnaLayout {
  int num_nodes = 0;     // including ground
  int num_branches = 0;  // extra current unknowns

  int size() const { return (num_nodes - 1) + num_branches; }

  /// Unknown index for a node voltage, or -1 for ground.
  int node_unknown(NodeId n) const {
    if (n == kGround) return -1;
    if (n < 0 || n >= num_nodes) throw std::out_of_range("node id out of range");
    return n - 1;
  }

  /// Unknown index for a branch current.
  int branch_unknown(int b) const {
    if (b < 0 || b >= num_branches) throw std::out_of_range("branch id out of range");
    return (num_nodes - 1) + b;
  }
};

/// A solved MNA vector with convenient accessors.
class Solution {
 public:
  Solution() = default;
  Solution(MnaLayout layout, std::vector<double> x)
      : layout_(layout), x_(std::move(x)) {
    if (static_cast<int>(x_.size()) != layout_.size())
      throw std::invalid_argument("Solution size mismatch");
  }

  static Solution zeros(MnaLayout layout) {
    return Solution(layout, std::vector<double>(static_cast<std::size_t>(layout.size()), 0.0));
  }

  const MnaLayout& layout() const { return layout_; }

  double v(NodeId n) const {
    const int u = layout_.node_unknown(n);
    return u < 0 ? 0.0 : x_[static_cast<std::size_t>(u)];
  }

  /// Differential voltage v(p) - v(m).
  double vd(NodeId p, NodeId m) const { return v(p) - v(m); }

  double branch_current(int b) const {
    return x_[static_cast<std::size_t>(layout_.branch_unknown(b))];
  }

  const std::vector<double>& raw() const { return x_; }
  std::vector<double>& raw() { return x_; }

 private:
  MnaLayout layout_;
  std::vector<double> x_;
};

/// Which analysis a stamp request belongs to; devices with dynamic elements
/// (C, L) behave differently in DC (open/short) and transient (companion
/// models).
enum class AnalysisMode { kDc, kTransient };

/// Integration method for transient companion models.
enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Parameters handed to Device::stamp each Newton iteration.
struct StampParams {
  AnalysisMode mode = AnalysisMode::kDc;
  double time = 0.0;       // current timepoint (transient) or 0 (DC)
  double dt = 0.0;         // step size (transient)
  Integrator integrator = Integrator::kBackwardEuler;
  double source_scale = 1.0;  // source stepping homotopy factor in [0,1]
};

}  // namespace rfmix::spice
