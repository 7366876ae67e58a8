// SweepLu, the sweep engines' analyze-once policy. Kept apart from
// sparse.{hpp,cpp}: declared and compiled there, it slowed the real-valued
// Newton refactor path ~10% (perfbench paper_mixer, same work counts).
#pragma once

#include <mutex>

#include "mathx/sparse.hpp"

namespace rfmix::mathx {

/// A step of SweepLu's policy, reported to the caller's counters.
enum class SweepStep { kFactor, kAnalyze, kRefactor, kFallback };

/// The analyze-once policy of a sweep whose points keep one stamp pattern
/// while their values change (AC and noise frequency points, the LPTV
/// conversion engine's base frequencies). The first factor() analyzes and
/// publishes the symbolic; the first replay records the stamp map; every
/// later factor gathers through the map and replays strictly; a pattern or
/// pivot disagreement analyzes privately and never writes the shared
/// state. Every factor is byte-identical to SparseLu(CscMatrix(t)).
///
/// factor() may run concurrently: the publishing calls serialize on once
/// flags and later calls only read. A caller that factors one point before
/// going parallel keeps its counts independent of scheduling.
template <typename T>
class SweepLu {
 public:
  /// `note` hears each step before the factorization it names is attempted
  /// (kRefactor once the replay has succeeded), so a singular matrix is
  /// counted like any other.
  explicit SweepLu(void (*note)(SweepStep)) : note_(note) {}

  SparseLu<T> factor(const TripletMatrix<T>& t);

 private:
  void (*note_)(SweepStep);
  std::once_flag primed_, mapped_;
  TripletCscMap<T> map_;
  SparseLuSymbolic<T> sym_;
};

extern template class SweepLu<std::complex<double>>;

}  // namespace rfmix::mathx
