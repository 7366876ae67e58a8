// The property the gen subsystem is built on: flat and hierarchical
// renderings of the same GenSpec elaborate to the *same* circuit —
// identical canonical cache records and bit-identical DC solves — at any
// thread count. memcmp over raw solution
// vectors, not EXPECT_DOUBLE_EQ: structural sharing is only trustworthy if
// instance replay performs the exact arithmetic of the flat deck.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gen/templates.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/circuit.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"
#include "svc/canonical.hpp"

namespace rfmix::gen {
namespace {

std::string canonical_of(const GenSpec& spec, bool hierarchical) {
  GenSpec s = spec;
  s.hierarchical = hierarchical;
  const spice::Circuit ckt = spice::parse_netlist(render_netlist(s));
  svc::CanonicalWriter w;
  svc::append_canonical_circuit(w, ckt);
  return w.str();
}

std::vector<double> solve(const GenSpec& spec, bool hierarchical, int threads) {
  runtime::ScopedPool pool(threads);
  GenSpec s = spec;
  s.hierarchical = hierarchical;
  // Fresh parse per run: devices carry companion state, so sharing a
  // circuit between solves would entangle the runs under comparison.
  spice::Circuit ckt = spice::parse_netlist(render_netlist(s));
  return spice::dc_operating_point(ckt).raw();
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<GenSpec> parity_specs() {
  std::vector<GenSpec> specs;

  GenSpec rx;
  rx.template_id = "rx_array";
  rx.elements = 5;
  rx.paths = 4;
  rx.sections = 3;
  rx.zbb_c = 1e-12;
  specs.push_back(rx);

  GenSpec rx_mm = rx;  // per-element mismatch: every slice subckt distinct
  rx_mm.mismatch = 0.08;
  rx_mm.seed = 1234;
  specs.push_back(rx_mm);

  GenSpec mixer;
  mixer.template_id = "mixer_slice";
  mixer.elements = 3;
  mixer.mismatch = 0.05;
  mixer.seed = 9;
  specs.push_back(mixer);

  GenSpec ladder;
  ladder.template_id = "ladder";
  ladder.depth = 5;  // 127 devices from a ~24-line deck
  specs.push_back(ladder);

  return specs;
}

TEST(ElaborationParityTest, CanonicalRecordsIdentical) {
  for (const GenSpec& spec : parity_specs()) {
    EXPECT_EQ(canonical_of(spec, false), canonical_of(spec, true))
        << spec.template_id;
  }
}

TEST(ElaborationParityTest, SolvesBitIdenticalAcrossRenderings) {
  for (const GenSpec& spec : parity_specs()) {
    const std::vector<double> baseline = solve(spec, /*hierarchical=*/false, 1);
    ASSERT_FALSE(baseline.empty());
    for (const bool hier : {false, true}) {
      for (const int threads : {1, 8}) {
        EXPECT_TRUE(same_bits(baseline, solve(spec, hier, threads)))
            << spec.template_id << " hier=" << hier << " threads=" << threads;
      }
    }
  }
}

TEST(ElaborationParityTest, MismatchSeedReproducesBitwise) {
  GenSpec spec;
  spec.elements = 4;
  spec.mismatch = 0.1;
  spec.seed = 77;
  const std::vector<double> a = solve(spec, /*hierarchical=*/true, 1);
  const std::vector<double> b = solve(spec, /*hierarchical=*/true, 1);
  EXPECT_TRUE(same_bits(a, b));
  GenSpec other = spec;
  other.seed = 78;
  EXPECT_FALSE(same_bits(a, solve(other, /*hierarchical=*/true, 1)));
}

}  // namespace
}  // namespace rfmix::gen
