// Byte-identity oracle at scale: the rendered deck of a gen_array_op-sized
// rx_array (2048 elements x 4 paths x 6 RC sections with caps and 5%
// per-element mismatch: 118,784 devices) and the circuit it elaborates to.
// The small-deck oracles (tests/spice/test_parser_oracle.cpp) pin every
// lexer and elaborator corner; this pins that rendering and elaboration at
// full size still produce the same bytes and the same circuit.
#include <gtest/gtest.h>

#include <string>

#include "../spice/circuit_digest.hpp"
#include "gen/templates.hpp"
#include "spice/parser.hpp"

namespace rfmix::gen {
namespace {

using test::hex;

TEST(ArrayDeckOracle, RenderedDeckAndCircuitDigest) {
  GenSpec spec;
  spec.template_id = "rx_array";
  spec.elements = 2048;
  spec.paths = 4;
  spec.sections = 6;
  spec.zbb_c = 2e-12;
  spec.mismatch = 0.05;
  spec.seed = 1;
  const std::string deck = render_netlist(spec);
  EXPECT_EQ(deck.size(), 4412183u);
  EXPECT_EQ(hex(test::fnv1a(deck)), hex(0x91b89dac3fce02dc));
  spice::Circuit ckt = spice::parse_netlist(deck);
  EXPECT_EQ(ckt.devices().size(), 118784u);
  EXPECT_EQ(ckt.num_nodes(), 61441);
  EXPECT_EQ(hex(test::circuit_digest(ckt)), hex(0xc50b0dc2ed408af9));
}

}  // namespace
}  // namespace rfmix::gen
