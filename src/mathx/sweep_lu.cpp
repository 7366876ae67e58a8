#include "mathx/sweep_lu.hpp"

namespace rfmix::mathx {

template <typename T>
SparseLu<T> SweepLu<T>::factor(const TripletMatrix<T>& t) {
  note_(SweepStep::kFactor);
  SparseLu<T> lu;
  bool primed_here = false;
  std::call_once(primed_, [&] {
    note_(SweepStep::kAnalyze);
    lu = SparseLu<T>(CscMatrix<T>(t), sym_);
    primed_here = true;
  });
  if (primed_here) return lu;
  // The first replay, not the first factor, records the stamp map: most
  // LPTV analyses factor once, and an unread map only costs memory. Any
  // point's map fills the same bytes as a fresh conversion.
  std::call_once(mapped_, [&] { map_.build(t); });
  // A point may stamp a different triplet sequence (the N-path stamp drops
  // its zero jwC entries at f = f_LO) into the same CSC pattern, so the
  // symbolic's pattern check, not the map, decides whether to replay.
  CscMatrix<T> a;
  if (map_.matches(t))
    map_.fill(t, a);
  else
    a = CscMatrix<T>(t);
  if (lu.refactor_from(sym_, a)) {
    note_(SweepStep::kRefactor);
    return lu;
  }
  note_(SweepStep::kFallback);
  note_(SweepStep::kAnalyze);
  return SparseLu<T>(a);
}

template class SweepLu<std::complex<double>>;

}  // namespace rfmix::mathx
