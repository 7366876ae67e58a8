// Byte-identity oracle for the netlist front end. The parser (text ->
// Circuit) and the number codec (obs::json::number: double -> text, the
// spelling of every generated deck value, canonical cache record and
// response payload) must not change one bit across a rewrite, so this file
// pins, at the values the previous implementation produced:
//  * a circuit digest (circuit_digest.hpp) of every deck in a corpus: the
//    parser tests' decks, generated decks of every template, the op/ac
//    netlists of the rfmixd fixture and one hand-written deck exercising
//    the lexer's corners;
//  * the exact ParseError::what() text of a table of malformed decks;
//  * json::number bytes and parse_spice_number bits for tables of values.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "circuit_digest.hpp"
#include "gen/templates.hpp"
#include "obs/json_writer.hpp"
#include "spice/parser.hpp"

namespace rfmix::spice {
namespace {

struct DeckCase {
  const char* name;
  std::string deck;
  std::uint64_t digest;
};

// The hand-written corner deck: CRLF line endings, tabs, upper case, a
// mid-line '*' comment, '+' continuations (of a PWL list and of MOS
// parameters), SIN/PULSE/PWL sources, AC with a phase, D/K/E/G/M cards.
const char* const kCornerDeck =
    "* front-end corner deck\r\n"
    "VDD\tVdd\t0\tDC 1.2\r\n"
    "VIN in 0 SIN(0.6 0.1 2.4G 30 1n) AC 1 45\r\n"
    "VP p 0 PULSE(0 1.2 1n 0.1n 0.1n 4n 10n)\r\n"
    "IPW q 0 PWL(0 0, 1u 1m,\r\n"
    "+ 2u 0.5m)\r\n"
    "R1 in mid 6.8K * mid-line comment\r\n"
    "R2 MID 0 4k\r\n"
    "RQ q 0 1k\r\n"
    "RP p 0 50\r\n"
    "C1 mid 0 1P\r\n"
    "L1 mid lx 10nH\r\n"
    "RL lx 0 1k\r\n"
    "D1 mid 0 IS=1e-14 N=1.05\r\n"
    "K1 p 0 sec 0 4n 1n 0.9 0.2\r\n"
    "RS sec 0 1MEG\r\n"
    "E1 buf 0 mid 0 2.0\r\n"
    "G1 0 isink buf 0 1m\r\n"
    "RI isink 0 1k\r\n"
    "M1 d in 0 0 NMOS W=10u\r\n"
    "+ L=65n\r\n"
    "M2 d g vdd vdd PMOS W=20U L=0.1u\r\n"
    "RG g 0 1k\r\n"
    "RD vdd d 2k\r\n"
    ".END\r\n";

std::vector<DeckCase> text_corpus() {
  return {
      // tests/spice/test_parser.cpp, every deck that parses.
      {"divider", "\n* simple divider\nV1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n.end\n",
       0x41a88efa13282e43},
      {"comments_case", "\nV1 IN 0 5      * inline comment\nr1 IN out 1K\nR2 OUT 0 1k\n",
       0xb2cb345ab77c22fd},
      {"sin_ac", "\nV1 in 0 SIN(0.6 0.1 2.4g) AC 1 90\nR1 in 0 50\n", 0x9911cf88b1c2ddd3},
      {"mos_geometry",
       "\nVDD vdd 0 1.2\nVG g 0 0.6\nM1 d g 0 0 NMOS W=10u L=65n\nRL vdd d 2k\n",
       0xe43f7c39bf2707e7},
      {"pmos_controlled",
       "\nVDD vdd 0 1.2\nVIN in 0 0.3\nM1 out in vdd vdd PMOS W=20u L=65n\nRL out 0 5k\n"
       "E1 buf 0 out 0 2.0\nG1 0 isink buf 0 1m\nRS isink 0 1k\n",
       0x5dc08a60bde2fed0},
      {"diode", "\nV1 in 0 5\nR1 in d 1k\nD1 d 0 IS=1e-14 N=1.0\n", 0x50ec175efc09adf3},
      {"end_card", "\nV1 in 0 1\nR1 in 0 1k\n.end\ngarbage that would otherwise throw\n",
       0x75fba44b3a523463},
      {"pulse_pwl",
       "\nV1 a 0 PULSE(0 1.2 1n 0.1n 0.1n 4n 10n)\nV2 b 0 PWL(0 0, 1u 1, 2u 0.5)\n"
       "R1 a 0 1k\nR2 b 0 1k\n",
       0xd3256e6677c577be},
      {"coupled", "\nV1 in 0 DC 0 AC 1\nK1 in 0 sec 0 4n 1n 0.999\nRL sec 0 1meg\n",
       0x6a0b26ef2d52233d},
      {"continuation",
       "\n.model nch nmos\n+ vto=0.35 kp=400u\n.subckt div in\n+ out\nR1 in out\n+ 1k\n"
       "R2 out 0 1k\n.ends\nV1 a 0\n* a comment between a card and its continuation\n"
       "+ DC 2\nX1 a m\n+ div\n",
       0x023379bb12e157df},
      {"subckt_expansion",
       "\n.subckt div in out\nR1 in out 1k\nR2 out 0 1k\n.ends\nV1 a 0 DC 2\nX1 a m div\n"
       "X2 m q div\n",
       0xf0b66014f5f23c46},
      {"nested_subckt",
       "\n.subckt half in out\nR1 in out 1k\nR2 out 0 1k\n.ends\n.subckt quarter in out\n"
       "X1 in mid half\nX2 mid out half\n.ends\nV1 a 0 DC 4\nXQ a b quarter\nRL b 0 1e12\n",
       0x54d057c108cc7871},
      {"v_and_r", "V1 a 0 1\nR1 a 0 1k\n", 0xe8e60bc6abdc66a4},
      {"subckt_ground",
       "\n.subckt load in\nR1 in 0 1k\n.ends\nV1 a 0 DC 1\nX1 a load\n", 0x4e8af187592f1106},
      {"leaf_segment",
       "\nV1 in 0 DC 1\nxe0.rsw0 in xe0.mid 1k\nxe0.rterm0 xe0.mid 0 1k\n", 0x20c9019a8795922c},
      // tests/svc/rfmixd_requests.jsonl, the op and ac netlists.
      {"svc_op", "V1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n.end", 0x41a88efa13282e43},
      {"svc_ac", "V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n.end", 0x1108d24d667a8176},
      {"svc_ac_reordered", "C1 out 0 1n\nR1 in out 1k\nV1 in 0 DC 0 AC 1\n.end",
       0xa3375f3013fa46fc},
      {"corner", kCornerDeck, 0x884033e5e1b07819},
  };
}

struct GenCase {
  const char* name;
  const char* template_id;
  bool hierarchical;
  double mismatch;
  double zbb_c;
  std::uint64_t digest;
};

const GenCase kGenCases[] = {
    {"rx_flat", "rx_array", false, 0.0, 0.0, 0xac7da2aa0889b03f},
    {"rx_hier", "rx_array", true, 0.0, 0.0, 0xac7da2aa0889b03f},
    {"rx_flat_mm", "rx_array", false, 0.05, 0.0, 0x85a383ed718c973b},
    {"rx_hier_mm", "rx_array", true, 0.05, 0.0, 0x85a383ed718c973b},
    {"rx_flat_caps", "rx_array", false, 0.0, 1e-12, 0xa93cbfcc5f018cef},
    {"rx_hier_caps", "rx_array", true, 0.0, 1e-12, 0xa93cbfcc5f018cef},
    {"rx_flat_mm_caps", "rx_array", false, 0.05, 1e-12, 0xf432ebe2c8d325a7},
    {"rx_hier_mm_caps", "rx_array", true, 0.05, 1e-12, 0xf432ebe2c8d325a7},
    {"slice_flat", "mixer_slice", false, 0.0, 0.0, 0x5b30f9a7a61d61aa},
    {"slice_hier", "mixer_slice", true, 0.0, 0.0, 0x5b30f9a7a61d61aa},
    {"slice_flat_mm", "mixer_slice", false, 0.05, 0.0, 0x0d73e367947da418},
    {"slice_hier_mm", "mixer_slice", true, 0.05, 0.0, 0x0d73e367947da418},
    {"ladder_flat", "ladder", false, 0.0, 0.0, 0x981a7783c49dcb65},
    {"ladder_hier", "ladder", true, 0.0, 0.0, 0x981a7783c49dcb65},
};

gen::GenSpec gen_spec(const GenCase& c) {
  gen::GenSpec s;
  s.template_id = c.template_id;
  s.elements = 3;
  s.paths = 3;
  s.sections = 2;
  s.depth = 3;
  s.seed = 11;
  s.mismatch = c.mismatch;
  s.zbb_c = c.zbb_c;
  s.hierarchical = c.hierarchical;
  return s;
}

using test::hex;

TEST(ParserOracle, TextCorpusDigests) {
  for (const DeckCase& c : text_corpus()) {
    Circuit ckt = parse_netlist(c.deck);
    EXPECT_EQ(hex(test::circuit_digest(ckt)), hex(c.digest)) << c.name;
  }
}

TEST(ParserOracle, GeneratedCorpusDigests) {
  for (const GenCase& c : kGenCases) {
    const std::string deck = gen::render_netlist(gen_spec(c));
    Circuit ckt = parse_netlist(deck);
    EXPECT_EQ(hex(test::circuit_digest(ckt)), hex(c.digest)) << c.name;
  }
}

struct MessageCase {
  const char* deck;
  const char* what;
};

const MessageCase kMessages[] = {
    {"R1 a 0\n",
     "netlist line 1: too few fields for r1"},
    {"Q1 a b c\n",
     "netlist line 1: unknown card: q1"},
    {"M1 d g s b FINFET\n",
     "netlist line 1: unknown MOS model: finfet"},
    {"M1 d g s b NMOS W=abc\n",
     "netlist line 1: malformed number: 'abc' (card m1)"},
    {"V1 a 0 1\nR1 a 0 abc\n",
     "netlist line 2: malformed number: 'abc' (card r1)"},
    {"V1 a 0 1\r\nR1 a 0\r\n",
     "netlist line 2: too few fields for r1"},
    {"* header\n+ R1 a 0 1k\n",
     "netlist line 2: continuation line with no card to continue"},
    {"V1 a 0 1\nR1 a 0\n+ bogus\n",
     "netlist line 2: malformed number: 'bogus' (card r1)"},
    {"X1 a b nosuch\n",
     "netlist line 1: unknown subcircuit: nosuch"},
    {"X1 a 0 1k\n",
     "netlist line 1: unknown subcircuit: 1k"},
    {".subckt s a\nR1 a 0 1k\n",
     "netlist line 2: unterminated .subckt"},
    {".subckt s a\nR1 a 0 1k\n\n\n",
     "netlist line 4: unterminated .subckt"},
    {".subckt s a\nR1 a 0 1k",
     "netlist line 2: unterminated .subckt"},
    {".ends\n",
     "netlist line 1: .ends without .subckt"},
    {".subckt s a b\nR1 a b 1k\n.ends\nV1 x 0 1\nX1 x s\n",
     "netlist line 5: subcircuit s expects 2 nodes, got 1"},
    {".subckt\n",
     "netlist line 1: .subckt needs a name and at least one port"},
    {".subckt s\nR1 a 0 1k\n.ends\n",
     "netlist line 1: .subckt needs a name and at least one port"},
    {".subckt a x\n.subckt b y\n.ends\n.ends\n",
     "netlist line 2: nested .subckt definitions are not supported"},
    {".subckt s a\n.end\n",
     "netlist line 2: .end inside .subckt"},
    {".subckt s a\nR1 a 0 1k\n.ends\n.subckt s a b\nR1 a b 1k\n.ends\n",
     "netlist line 4: duplicate .subckt name 's'"},
    {"V1 a 0 1\nR1 a 0 1k\nR1 a 0 2k\n",
     "netlist line 3: duplicate device name 'r1' (first defined at line 2)"},
    {"R1 a 0 1k\nr1 a 0 2k\n",
     "netlist line 2: duplicate device name 'r1' (first defined at line 1)"},
    {"R1 a 0 1k\nR1\n",
     "netlist line 2: duplicate device name 'r1' (first defined at line 1)"},
    {".subckt cell a b\nR1 a b 1k\nR1 b 0 2k\n.ends\nV1 x 0 DC 1\nX1 x y cell\n",
     "netlist line 3: duplicate device name 'r1' in .subckt 'cell' (first defined at line 2)"},
    {".subckt div in out\nR1 in out 1k\n.ends\nV1 a 0 DC 2\nX1 a m div\nX1 m q div\n",
     "netlist line 6: duplicate device name 'x1' (first defined at line 5)"},
    {"R1 a 0 -5\n",
     "netlist line 1: Resistor requires positive resistance (card r1)"},
    {"C1 a 0 -1p\n",
     "netlist line 1: Capacitor requires non-negative value (card c1)"},
    {"L1 a 0 0\n",
     "netlist line 1: Inductor requires positive value (card l1)"},
    {"K1 a 0 b 0 1n 1n 1.5\n",
     "netlist line 1: CoupledInductors: need 0 <= k < 1 (card k1)"},
    {"K1 a 0 b 0 1n 1n\n",
     "netlist line 1: too few fields for k1"},
    {"E1 a 0 b\n",
     "netlist line 1: too few fields for e1"},
    {"G1 a 0 b 0 abc\n",
     "netlist line 1: malformed number: 'abc' (card g1)"},
    {"V1 a 0 DC\n",
     "netlist line 1: DC needs a value"},
    {"V1 a 0 SIN 0 1 1k\n",
     "netlist line 1: SIN must be followed by ("},
    {"V1 a 0 SIN(0 1 1k\n",
     "netlist line 1: SIN missing )"},
    {"V1 a 0 SIN(0 1)\n",
     "netlist line 1: SIN needs offset amp freq"},
    {"V1 a 0 PULSE(0)\n",
     "netlist line 1: PULSE needs v1 v2 ..."},
    {"V1 a 0 PWL(0 0 1u)\n",
     "netlist line 1: PWL needs t/v pairs"},
    {"V1 a 0 AC\n",
     "netlist line 1: AC needs a magnitude"},
    {"V1 a 0 1 AC 1 x\n",
     "<no error>"},
    {"D1 a 0 IS=abc\n",
     "netlist line 1: malformed number: 'abc' (card d1)"},
    {"R1 a 0 1e400\n",
     "netlist line 1: malformed number: '1e400' (card r1)"},
    {"R1 a 0 1e-310\n",
     "netlist line 1: malformed number: '1e-310' (card r1)"},
    {"V1 a 0 1\nR1 a 0 -5\nR2 a 0 abc\n",
     "netlist line 3: malformed number: 'abc' (card r2)"},
    {".subckt s a\nR1 a 0 abc\n.ends\nR0 x 0 -1\nX1 x s\n",
     "netlist line 4: Resistor requires positive resistance (card r0)"},
    {".subckt s a\nR1 a 0 abc\n.ends\nV1 x 0 1\nX1 x s\n",
     "netlist line 2: malformed number: 'abc' (card r1)"},
    {".subckt s a\nR1 a 0 -1\n.ends\nX1 x s\n",
     "netlist line 2: Resistor requires positive resistance (card r1)"},
    {".subckt s a\nX1 a s\n.ends\nV1 n 0 1\nX1 n s\n",
     "netlist line 0: subcircuit nesting too deep (recursion?)"},
};

TEST(ParserOracle, ErrorMessages) {
  for (const MessageCase& c : kMessages) {
    std::string what = "<no error>";
    try {
      parse_netlist(c.deck);
    } catch (const ParseError& e) {
      what = e.what();
    }
    EXPECT_EQ(what, c.what) << "deck: " << c.deck;
  }
}

struct NumberCase {
  double value;
  const char* text;
};

TEST(NumberOracle, JsonNumberBytes) {
  const NumberCase cases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {-1.5, "-1.5"},
      {0.1, "0.1"},
      {0.3, "0.3"},
      {1.0 / 3.0, "0.33333333333333331"},
      {2.0 / 3.0, "0.66666666666666663"},
      {5e-324, "4.94065645841247e-324"},
      {1e15, "1e+15"},
      {1e14, "100000000000000"},
      {123456789012345.0, "123456789012345"},
      {1e16, "1e+16"},
      {1e21, "1e+21"},
      {1e-5, "1e-05"},
      {1e-7, "1e-07"},
      {2e-12, "2e-12"},
      {1.0 / 3.0 * 1e-12, "3.3333333333333329e-13"},
      {2.4e9, "2400000000"},
      {50.0, "50"},
      {12345678.9, "12345678.9"},
      {9007199254740993.0, "9007199254740992"},
      {3.141592653589793, "3.1415926535897931"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
      {DBL_MIN, "2.2250738585072014e-308"},
      {DBL_TRUE_MIN * 3, "1.48219693752374e-323"},
      {std::numeric_limits<double>::quiet_NaN(), "null"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
  };
  for (const NumberCase& c : cases) EXPECT_EQ(obs::json::number(c.value), c.text);
  EXPECT_EQ(obs::json::number(std::uint64_t{0}), "0");
  EXPECT_EQ(obs::json::number(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(NumberOracle, SpiceNumberSpellings) {
  struct Spelling {
    const char* text;
    std::uint64_t bits;
  };
  const Spelling cases[] = {
      {"+1", 0x3ff0000000000000},
      {".5", 0x3fe0000000000000},
      {"0x10", 0x4030000000000000},
      {"-0x10", 0xc030000000000000},
      {"0x", 0x0000000000000000},
      {"inf", 0x7ff0000000000000},
      {"-inf", 0xfff0000000000000},
      {"1k5", 0x408f400000000000},
      {"10uF", 0x3ee4f8b588e368f0},
      {"10UF", 0x3ee4f8b588e368f0},
      {"1.5k", 0x4097700000000000},
      {"2meg", 0x413e848000000000},
      {"2MEG", 0x413e848000000000},
      {"1megohm", 0x412e848000000000},
      {"1m", 0x3f50624dd2f1a9fc},
      {"1meg", 0x412e848000000000},
      {"3n", 0x3e29c511dc3a41e0},
      {"4p", 0x3d919799812dea11},
      {"5f", 0x3cf6849b86a12b9c},
      {"7m", 0x3f7cac083126e979},
      {"1g", 0x41cdcd6500000000},
      {"2t", 0x427d1a94a2000000},
      {"42", 0x4045000000000000},
      {"1e3", 0x408f400000000000},
      {"1E3", 0x408f400000000000},
      {"-.5u", 0xbea0c6f7a0b5ed8d},
      {"1.e5", 0x40f86a0000000000},
      {"00012", 0x4028000000000000},
      {"1e", 0x3ff0000000000000},
      {"1e+", 0x3ff0000000000000},
      {"-0", 0x8000000000000000},
      {"1x", 0x3ff0000000000000},
      {"2.4g", 0x41e1e1a300000000},
      {"0.1u", 0x3e7ad7f29abcaf48},
      {"1e308", 0x7fe1ccf385ebc8a0},
      {"1.7976931348623157e308", 0x7fefffffffffffff},
      {"2.2250738585072014e-308", 0x0010000000000000},
      {"0e400", 0x0000000000000000},
      {"6.8K", 0x40ba900000000000},
      {"1P", 0x3d719799812dea11},
  };
  for (const Spelling& c : cases)
    EXPECT_EQ(hex(bits(parse_spice_number(c.text))), hex(c.bits)) << c.text;
  EXPECT_TRUE(std::isnan(parse_spice_number("nan")));
  for (const char* bad : {"abc", "", "+", "-", ".", "e5", "+-1", "-+1", "++1", "1e400",
                          "-1e400", "1e-400", "1e-310", "4.9406564584124654e-324",
                          "2e-324", "1.7976931348623159e308", "k", "meg"}) {
    try {
      parse_spice_number(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "malformed number: '" + std::string(bad) + "'");
    }
  }
}

}  // namespace
}  // namespace rfmix::spice
