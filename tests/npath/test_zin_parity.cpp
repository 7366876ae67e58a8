// Bit-exactness harness for the npath Zin sweep, mirroring the solver
// parity discipline: the sweep must produce byte-identical numbers at any
// thread count and equal a cold analysis at every point, because the
// rfmixd cache stores one payload per content key and replays it to every
// client — a single flipped mantissa bit would make a cache hit diverge
// from a fresh run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "npath/zin.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/ac.hpp"
#include "svc/request.hpp"

namespace rfmix::npath {
namespace {

NpathSpec parity_spec() {
  NpathSpec s;
  s.lo.phases = 4;
  s.lo.rise_frac = 0.02;
  s.lo.samples = 128;
  s.harmonics = 10;
  s.f_lo_hz = 1e9;
  s.zbb_r = 2e3;
  s.zbb_c = 25e-12;
  s.c_rf = 1e-13;
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Compare two points field-by-field at the bit level (NaN-safe, -0.0
/// sensitive) — "close" is not the contract here, "identical" is.
void expect_point_identical(const ZinPoint& a, const ZinPoint& b, std::size_t i) {
  EXPECT_EQ(bits(a.zin.real()), bits(b.zin.real())) << i;
  EXPECT_EQ(bits(a.zin.imag()), bits(b.zin.imag())) << i;
  EXPECT_EQ(bits(a.s11.real()), bits(b.s11.real())) << i;
  EXPECT_EQ(bits(a.s11.imag()), bits(b.s11.imag())) << i;
  EXPECT_EQ(bits(a.rerad_minus), bits(b.rerad_minus)) << i;
  EXPECT_EQ(bits(a.rerad_plus), bits(b.rerad_plus)) << i;
  EXPECT_EQ(bits(a.rerad_3lo), bits(b.rerad_3lo)) << i;
}

void expect_bit_identical(const ZinSweep& a, const ZinSweep& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    ASSERT_EQ(bits(a.freqs_hz[i]), bits(b.freqs_hz[i])) << i;
    expect_point_identical(a.points[i], b.points[i], i);
  }
  EXPECT_EQ(bits(a.summary.f_peak_hz), bits(b.summary.f_peak_hz));
  EXPECT_EQ(bits(a.summary.zin_peak_ohm), bits(b.summary.zin_peak_ohm));
  EXPECT_EQ(bits(a.summary.zin_floor_ohm), bits(b.summary.zin_floor_ohm));
  EXPECT_EQ(bits(a.summary.bw_3db_hz), bits(b.summary.bw_3db_hz));
  EXPECT_EQ(bits(a.summary.q), bits(b.summary.q));
  EXPECT_EQ(bits(a.summary.rerad_3lo_max), bits(b.summary.rerad_3lo_max));
}

// 33 points from 0.6 to 1.4 GHz: the grid hits f_LO = 1 GHz exactly.
const std::vector<double> kGrid = spice::lin_space(0.6e9, 1.4e9, 33);

ZinSweep run(const NpathSpec& spec, int threads) {
  runtime::ScopedPool pool(threads);
  return zin_sweep(spec, kGrid);
}

TEST(NpathZinParityTest, ThreadCountDoesNotChangeBits) {
  const NpathSpec spec = parity_spec();
  expect_bit_identical(run(spec, 1), run(spec, 8));
}

// Every sweep point must equal a one-point sweep of its frequency, run
// alone: a point may depend on nothing the sweep shares across points.
TEST(NpathZinParityTest, ClassicAndReuseSolversAgreeBitwise) {
  const NpathSpec spec = parity_spec();
  const ZinSweep reuse = run(spec, 8);
  for (std::size_t i = 0; i < kGrid.size(); ++i)
    expect_point_identical(zin_sweep(spec, {kGrid[i]}).points[0], reuse.points[i], i);
}

TEST(NpathZinParityTest, ServicePayloadBytesAreInvariant) {
  // The same invariance one layer up: the serialized npath_zin payload the
  // cache stores must be string-equal across thread counts.
  svc::Request req;
  req.kind = svc::RequestKind::kNpathZin;
  req.npath.spec = parity_spec();
  req.npath.f_start_hz = 0.8e9;
  req.npath.f_stop_hz = 1.2e9;
  req.npath.points = 17;

  std::vector<std::string> payloads;
  for (const int threads : {1, 8}) {
    runtime::ScopedPool pool(threads);
    payloads.push_back(svc::execute_request(req));
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_NE(payloads[0].find("\"analysis\":\"npath_zin\""), std::string::npos);
}

}  // namespace
}  // namespace rfmix::npath
