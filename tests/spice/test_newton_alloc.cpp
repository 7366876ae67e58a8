// A warmed SolverSession's Newton iteration allocates nothing: it restamps,
// refactors and solves in the session's buffers. This binary replaces the
// global operator new with a counting one, so it is built on its own.
// Sanitizer builds interpose the allocator themselves and skip the test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/circuits.hpp"
#include "spice/op.hpp"
#include "spice/solver.hpp"

#if !RFMIX_SANITIZED
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace rfmix::spice {
namespace {

TEST(NewtonAllocations, WarmTransientIterationsAllocateNothing) {
#if RFMIX_SANITIZED
  GTEST_SKIP() << "sanitizer builds interpose the allocator";
#else
  core::MixerConfig cfg;
  cfg.mode = core::MixerMode::kActive;
  auto mixer = core::build_transistor_mixer(cfg);
  core::set_rf_stimulus(*mixer, {{2.45e9}, 5e-3});
  Circuit& ckt = mixer->circuit;
  SolverSession session;
  Solution x = dc_operating_point(ckt, {}, &session);
  for (const auto& dev : ckt.devices()) dev->tran_begin(x);

  StampParams sp;
  sp.mode = AnalysisMode::kTransient;
  sp.dt = 1.0 / (cfg.f_lo_hz * 16);
  const NewtonOptions opts;
  int iterations = 0;
  for (int k = 1; k <= 24; ++k) {
    sp.time = k * sp.dt;
    sp.integrator = k == 1 ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
    const std::size_t before = g_allocations.load();
    NewtonResult nr = solve_newton(ckt, x, sp, opts, &session);
    const std::size_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(nr.converged) << "step " << k;
    // The first transient step records its new pattern and analyzes it.
    if (k == 1) {
      EXPECT_GT(allocations, 1u) << "the counting operator new is not in use";
    }
    // Past the first steps (the DC pattern differs from the transient one),
    // a call allocates only the returned solution, whatever its iterations.
    if (k > 4) {
      EXPECT_EQ(allocations, 1u) << "step " << k << ", " << nr.iterations << " iterations";
      iterations += nr.iterations;
    }
    x = nr.solution;
    for (const auto& dev : ckt.devices()) dev->tran_accept(x, sp);
  }
  EXPECT_GT(iterations, 2 * 20) << "too few iterations to show a per-iteration allocation";
#endif
}

}  // namespace
}  // namespace rfmix::spice
