// Stamping helpers: devices describe their linearized contributions through
// these, and never touch matrix indices directly. Ground rows/columns are
// dropped here, so device code can stamp node 0 freely.
#pragma once

#include <complex>
#include <vector>

#include "mathx/sparse.hpp"
#include "spice/types.hpp"

namespace rfmix::spice {

/// Builds the triplets of A and the right-hand side b of the MNA system
/// A x = b: real conductances for DC and transient Newton iterations,
/// complex admittances for AC. Sign conventions:
///  * add_admittance(p, m, y): admittance y between p and m.
///  * add_vccs(p, m, c, d, gm): current gm * (v(c) - v(d)) flowing from p to
///    m through the device.
///  * add_current(p, m, i): constant current i flowing from p to m *through
///    the device* (so it leaves node p and enters node m).
///  * add_entry(row_unknown, col_unknown, v) / add_rhs(row_unknown, v): raw
///    access by unknown index for branch equations (use layout()).
///  * add_branch_incidence(p, m, branch): branch current flows from p to m;
///    KCL rows get +-1 in the branch column and the branch row the
///    matching +-1 in the node columns.
template <typename T>
class Stamper {
 public:
  Stamper(mathx::TripletMatrix<T>& a, std::vector<T>& b, MnaLayout layout)
      : a_(a), b_(b), layout_(layout) {}

  const MnaLayout& layout() const { return layout_; }

  void add_admittance(NodeId p, NodeId m, T y) {
    const int up = layout_.node_unknown(p);
    const int um = layout_.node_unknown(m);
    if (up >= 0) a_.add(up, up, y);
    if (um >= 0) a_.add(um, um, y);
    if (up >= 0 && um >= 0) {
      a_.add(up, um, -y);
      a_.add(um, up, -y);
    }
  }

  void add_vccs(NodeId p, NodeId m, NodeId c, NodeId d, T gm) {
    const int up = layout_.node_unknown(p);
    const int um = layout_.node_unknown(m);
    const int uc = layout_.node_unknown(c);
    const int ud = layout_.node_unknown(d);
    if (up >= 0 && uc >= 0) a_.add(up, uc, gm);
    if (up >= 0 && ud >= 0) a_.add(up, ud, -gm);
    if (um >= 0 && uc >= 0) a_.add(um, uc, -gm);
    if (um >= 0 && ud >= 0) a_.add(um, ud, gm);
  }

  void add_current(NodeId p, NodeId m, T i) {
    const int up = layout_.node_unknown(p);
    const int um = layout_.node_unknown(m);
    if (up >= 0) b_[static_cast<std::size_t>(up)] -= i;
    if (um >= 0) b_[static_cast<std::size_t>(um)] += i;
  }

  void add_entry(int row_unknown, int col_unknown, T v) {
    if (row_unknown >= 0 && col_unknown >= 0)
      a_.add(static_cast<std::size_t>(row_unknown), static_cast<std::size_t>(col_unknown), v);
  }

  void add_rhs(int row_unknown, T v) {
    if (row_unknown >= 0) b_[static_cast<std::size_t>(row_unknown)] += v;
  }

  void add_branch_incidence(NodeId p, NodeId m, int branch) {
    const int ub = layout_.branch_unknown(branch);
    const int up = layout_.node_unknown(p);
    const int um = layout_.node_unknown(m);
    if (up >= 0) {
      a_.add(up, ub, T(1.0));
      a_.add(ub, up, T(1.0));
    }
    if (um >= 0) {
      a_.add(um, ub, T(-1.0));
      a_.add(ub, um, T(-1.0));
    }
  }

 private:
  mathx::TripletMatrix<T>& a_;
  std::vector<T>& b_;
  MnaLayout layout_;
};

using RealStamper = Stamper<double>;
using ComplexStamper = Stamper<std::complex<double>>;

}  // namespace rfmix::spice
