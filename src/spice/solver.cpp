#include "spice/solver.hpp"

#include "obs/obs.hpp"
#include "spice/circuit.hpp"
#include "spice/mosfet.hpp"

namespace rfmix::spice {

mathx::TripletMatrix<double>& SolverSession::restamp(std::size_t n) {
  if (g_.rows() != n) g_ = mathx::TripletMatrix<double>(n, n);
  g_.restamp();
  rhs_.assign(n, 0.0);
  return g_;
}

const mathx::SparseLu<double>& SolverSession::factor() {
  // Counted before the attempt: a singular pivot still did the work.
  RFMIX_OBS_COUNT("spice.lu.factorizations");
  // The map was built for the sequence of the previous factor(), so it
  // still applies exactly when the restamp repeated that sequence.
  if (!g_.finish_restamp() || !have_map_) {
    if (have_map_) RFMIX_OBS_COUNT("spice.lu.pattern_rebuild");
    map_.build(g_);
    have_map_ = true;
    have_sym_ = false;  // the symbolic is tied to the old pattern
  }
  map_.fill(g_, csc_);
  if (have_sym_) {
    if (lu_.refactor_from(sym_, csc_)) {
      RFMIX_OBS_COUNT("spice.lu.refactor");
      return lu_;
    }
    RFMIX_OBS_COUNT("spice.lu.fallback");
  }
  RFMIX_OBS_COUNT("spice.lu.analyze");
  lu_.analyze(csc_, &sym_);
  have_sym_ = true;
  return lu_;
}

std::size_t SolverSession::mosfet_count(const Circuit& ckt) {
  if (counted_ckt_ != &ckt) {
    mosfets_ = 0;
    for (const auto& dev : ckt.devices())
      if (dynamic_cast<const Mosfet*>(dev.get()) != nullptr) ++mosfets_;
    counted_ckt_ = &ckt;
  }
  return mosfets_;
}

}  // namespace rfmix::spice
