// Netlist parser tests.
#include "spice/parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "spice/ac.hpp"
#include "spice/devices_sources.hpp"
#include "spice/op.hpp"
#include "svc/request.hpp"

namespace rfmix::spice {
namespace {

TEST(ParseNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("1.5k"), 1500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("10u"), 10e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("3n"), 3e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("4p"), 4e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("5f"), 5e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("2t"), 2e12);
  EXPECT_DOUBLE_EQ(parse_spice_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("10uF"), 10e-6);  // trailing unit letter
}

TEST(ParseNumber, MilIsAThousandthOfAnInch) {
  EXPECT_EQ(parse_spice_number("1mil"), 25.4e-6);
  EXPECT_EQ(parse_spice_number("4MIL"), 4 * 25.4e-6);
  // The neighbours that share its leading 'm' keep their scales.
  EXPECT_EQ(parse_spice_number("1m"), 1e-3);
  EXPECT_EQ(parse_spice_number("1meg"), 1e6);
  EXPECT_EQ(parse_spice_number("1megohm"), 1e6);
  EXPECT_EQ(parse_spice_number("1mi"), 1e-3);
}

TEST(Parser, SemicolonEndsTheCard) {
  // A trailing "; note" used to parse on these cards only because the
  // extra tokens were ignored; as a comment it must leave the cache key of
  // the card without it unchanged.
  const char* const decks[] = {
      "V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\nL1 b c 1n\nRC c 0 1k\n",
      "I1 0 a 1m\nR1 a 0 1k\n",
      "VD vdd 0 1.2\nVG g 0 0.6\nM1 d g 0 0 nmos w=2u l=65n\nRD vdd d 1k\n",
      "V1 a 0 1\nR1 a d 1k\nD1 d 0 is=1e-14 n=1.1\n",
      "V1 a 0 1\nE1 b 0 a 0 2\nRB b 0 1k\nG1 0 c a 0 1m\nRC c 0 1k\n",
  };
  for (const char* deck : decks) {
    std::string commented;
    for (const char c : std::string(deck)) {
      if (c == '\n') commented += " ; note, (with) w=3u\n";
      else commented.push_back(c);
    }
    svc::Request plain, with_note;
    plain.netlist = deck;
    with_note.netlist = commented;
    EXPECT_EQ(svc::request_canonical(with_note), svc::request_canonical(plain)) << commented;
  }
}

TEST(Parser, SemicolonCommentsOnCardsThatRejectedThem) {
  // Before ';' was a comment these read the note as an argument.
  Circuit x = parse_netlist(
      ".subckt div in out\nR1 in out 1k\nR2 out 0 1k\n.ends\n"
      "V1 a 0 DC 2\nX1 a m div ; instance\n");
  EXPECT_NEAR(dc_operating_point(x).v(x.find_node("m")), 1.0, 1e-9);
  Circuit k = parse_netlist("V1 in 0 DC 0 AC 1\nK1 in 0 sec 0 4n 1n 0.5 ; coupling\nRL sec 0 1k\n");
  EXPECT_EQ(k.devices().size(), 3u);
  Circuit v = parse_netlist("V1 a 0 ; grounded source\nR1 a 0 1k\n");
  auto* v1 = dynamic_cast<VoltageSource*>(v.find_device("v1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->waveform().dc_value(), 0.0);
  // ';' ends a continuation line and a directive too.
  Circuit c = parse_netlist("V1 a 0 ; first line\n+ DC 3 ; continued\nR1 a 0 1k ; load\n");
  EXPECT_NEAR(dc_operating_point(c).v(c.find_node("a")), 3.0, 1e-12);
}

TEST(Parser, VoltageDividerNetlist) {
  const std::string net = R"(
* simple divider
V1 in 0 DC 10
R1 in mid 6k
R2 mid 0 4k
.end
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(ckt.find_node("mid")), 4.0, 1e-6);
}

TEST(Parser, CommentsAndCaseInsensitivity) {
  const std::string net = R"(
V1 IN 0 5      * inline comment
r1 IN out 1K
R2 OUT 0 1k
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(ckt.find_node("out")), 2.5, 1e-6);
}

TEST(Parser, SinSourceAndAc) {
  const std::string net = R"(
V1 in 0 SIN(0.6 0.1 2.4g) AC 1 90
R1 in 0 50
)";
  Circuit ckt = parse_netlist(net);
  ckt.finalize();
  auto* v = dynamic_cast<VoltageSource*>(ckt.find_device("v1"));
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->waveform().dc_value(), 0.6);
  EXPECT_DOUBLE_EQ(v->ac_magnitude(), 1.0);
  EXPECT_NEAR(v->waveform().value(0.25 / 2.4e9), 0.7, 1e-6);
}

TEST(Parser, MosWithGeometry) {
  const std::string net = R"(
VDD vdd 0 1.2
VG g 0 0.6
M1 d g 0 0 NMOS W=10u L=65n
RL vdd d 2k
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  const double vd = op.v(ckt.find_node("d"));
  EXPECT_GT(vd, 0.01);
  EXPECT_LT(vd, 1.19);
}

TEST(Parser, PmosAndControlledSources) {
  const std::string net = R"(
VDD vdd 0 1.2
VIN in 0 0.3
M1 out in vdd vdd PMOS W=20u L=65n
RL out 0 5k
E1 buf 0 out 0 2.0
G1 0 isink buf 0 1m
RS isink 0 1k
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(ckt.find_node("buf")), 2.0 * op.v(ckt.find_node("out")), 1e-6);
  EXPECT_NEAR(op.v(ckt.find_node("isink")),
              1e-3 * op.v(ckt.find_node("buf")) * 1e3, 1e-4);
}

TEST(Parser, DiodeCard) {
  const std::string net = R"(
V1 in 0 5
R1 in d 1k
D1 d 0 IS=1e-14 N=1.0
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  EXPECT_GT(op.v(ckt.find_node("d")), 0.5);
  EXPECT_LT(op.v(ckt.find_node("d")), 0.9);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  EXPECT_THROW(parse_netlist("R1 a 0\n"), ParseError);      // too few fields
  EXPECT_THROW(parse_netlist("X1 a 0 1k\n"), ParseError);   // unknown card
  EXPECT_THROW(parse_netlist("M1 d g s b FINFET\n"), ParseError);
  try {
    parse_netlist("V1 a 0 1\nR1 a 0\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, EndCardStopsParsing) {
  const std::string net = R"(
V1 in 0 1
R1 in 0 1k
.end
garbage that would otherwise throw
)";
  EXPECT_NO_THROW(parse_netlist(net));
}

TEST(Parser, PulseAndPwlSources) {
  const std::string net = R"(
V1 a 0 PULSE(0 1.2 1n 0.1n 0.1n 4n 10n)
V2 b 0 PWL(0 0, 1u 1, 2u 0.5)
R1 a 0 1k
R2 b 0 1k
)";
  Circuit ckt = parse_netlist(net);
  ckt.finalize();
  auto* v1 = dynamic_cast<VoltageSource*>(ckt.find_device("v1"));
  auto* v2 = dynamic_cast<VoltageSource*>(ckt.find_device("v2"));
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_NEAR(v1->waveform().value(3e-9), 1.2, 1e-9);   // flat top
  EXPECT_NEAR(v1->waveform().value(0.5e-9), 0.0, 1e-9); // before delay
  EXPECT_NEAR(v2->waveform().value(0.5e-6), 0.5, 1e-9);
  EXPECT_NEAR(v2->waveform().value(1.5e-6), 0.75, 1e-9);
}

TEST(Parser, CoupledInductorCard) {
  const std::string net = R"(
V1 in 0 DC 0 AC 1
K1 in 0 sec 0 4n 1n 0.999
RL sec 0 1meg
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  const AcResult res = ac_sweep(ckt, op, {1e9});
  // 4:1 inductance = 2:1 voltage ratio at the open secondary.
  EXPECT_NEAR(std::abs(res.v(0, ckt.find_node("sec"))), 0.5, 0.01);
}

TEST(Parser, ContinuationLines) {
  // '+' continues the previous card: a device card, a .subckt header's
  // port list, or a directive the parser ignores (dropped with it).
  const std::string net = R"(
.model nch nmos
+ vto=0.35 kp=400u
.subckt div in
+ out
R1 in out
+ 1k
R2 out 0 1k
.ends
V1 a 0
* a comment between a card and its continuation
+ DC 2
X1 a m
+ div
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(ckt.find_node("m")), 1.0, 1e-5);
}

TEST(Parser, ContinuationErrorsCarryLineNumbers) {
  // A '+' line with nothing to continue fails at its own line...
  try {
    parse_netlist("* header\n+ R1 a 0 1k\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2: continuation line"), std::string::npos) << what;
  }
  // ...and an error in a continued card cites the card's first line.
  try {
    parse_netlist("V1 a 0 1\nR1 a 0\n+ bogus\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2: malformed number: 'bogus'"), std::string::npos) << what;
  }
}

TEST(Parser, SubcircuitExpansion) {
  // A divider subcircuit instantiated twice; internal nodes must be
  // independent per instance.
  const std::string net = R"(
.subckt div in out
R1 in out 1k
R2 out 0 1k
.ends
V1 a 0 DC 2
X1 a m div
X2 m q div
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  // X2 loads X1's output: v(m) = 2 * (1k||2k)/(1k + 1k||2k) = 0.8 V;
  // v(q) = v(m)/2 = 0.4 V.
  EXPECT_NEAR(op.v(ckt.find_node("m")), 0.8, 1e-5);
  EXPECT_NEAR(op.v(ckt.find_node("q")), 0.4, 1e-5);
}

TEST(Parser, NestedSubcircuitInstantiation) {
  // A subcircuit that instantiates another subcircuit.
  const std::string net = R"(
.subckt half in out
R1 in out 1k
R2 out 0 1k
.ends
.subckt quarter in out
X1 in mid half
X2 mid out half
.ends
V1 a 0 DC 4
XQ a b quarter
RL b 0 1e12
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  // Second divider loads the first: v(xq.mid) = 4 * (1k||2k)/(1k + 1k||2k)
  // = 1.6 V, and the unloaded output halves it to 0.8 V.
  EXPECT_NEAR(op.v(ckt.find_node("xq.mid")), 1.6, 1e-4);
  EXPECT_NEAR(op.v(ckt.find_node("b")), 0.8, 1e-4);
}

TEST(Parser, SubcircuitErrors) {
  EXPECT_THROW(parse_netlist("X1 a b nosuch\n"), ParseError);
  EXPECT_THROW(parse_netlist(".subckt s a\nR1 a 0 1k\n"), ParseError);  // no .ends
  EXPECT_THROW(parse_netlist(".ends\n"), ParseError);
  EXPECT_THROW(
      parse_netlist(".subckt s a b\nR1 a b 1k\n.ends\nV1 x 0 1\nX1 x s\n"),
      ParseError);  // port count mismatch
}

TEST(Parser, RejectsDuplicateDeviceNames) {
  try {
    parse_netlist("V1 a 0 1\nR1 a 0 1k\nR1 a 0 2k\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate device name 'r1'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;  // first definition
  }
  // Case-insensitive: R1 and r1 are the same device.
  EXPECT_THROW(parse_netlist("R1 a 0 1k\nr1 a 0 2k\n"), ParseError);
  // Different letters are different namespaces only by spelling; V1/R1 fine.
  EXPECT_NO_THROW(parse_netlist("V1 a 0 1\nR1 a 0 1k\n"));
}

TEST(Parser, DuplicateNamesInsideSubcircuitInstances) {
  // The same subcircuit twice is fine (names get instance prefixes)...
  const std::string ok = R"(
.subckt div in out
R1 in out 1k
R2 out 0 1k
.ends
V1 a 0 DC 2
X1 a m div
X2 m q div
)";
  EXPECT_NO_THROW(parse_netlist(ok));
  // ...but two instances with the same instance name collide.
  const std::string dup = R"(
.subckt div in out
R1 in out 1k
.ends
V1 a 0 DC 2
X1 a m div
X1 m q div
)";
  EXPECT_THROW(parse_netlist(dup), ParseError);
}

TEST(Parser, RejectsDuplicateSubcircuitNames) {
  const std::string net = R"(
.subckt s a
R1 a 0 1k
.ends
.subckt s a b
R1 a b 1k
.ends
)";
  try {
    parse_netlist(net);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
  }
}

TEST(Parser, MalformedNumbersCarryLineNumbers) {
  try {
    parse_netlist("V1 a 0 1\nR1 a 0 abc\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("malformed number"), std::string::npos) << what;
  }
}

TEST(Parser, SubcircuitGroundIsGlobal) {
  const std::string net = R"(
.subckt load in
R1 in 0 1k
.ends
V1 a 0 DC 1
X1 a load
)";
  Circuit ckt = parse_netlist(net);
  const Solution op = dc_operating_point(ckt);
  auto* v1 = dynamic_cast<VoltageSource*>(ckt.find_device("v1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_NEAR(v1->current(op), -1e-3, 1e-8);  // 1 V across 1k inside the sub
}

TEST(Parser, DuplicateInsideSubcktBodyCitesSubcktName) {
  const std::string net = R"(
.subckt cell a b
R1 a b 1k
R1 b 0 2k
.ends
V1 x 0 DC 1
X1 x y cell
)";
  try {
    parse_netlist(net);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate device name 'r1' in .subckt 'cell'"),
              std::string::npos)
        << what;
  }
}

TEST(Parser, LeafSegmentTypesHierarchicalNames) {
  // A flat deck can carry elaboration-style names: the card is typed by
  // the first letter of the last '.'-separated segment, so "xe0.rsw0" is
  // a resistor even though the name starts with 'x'.
  const std::string net = R"(
V1 in 0 DC 1
xe0.rsw0 in xe0.mid 1k
xe0.rterm0 xe0.mid 0 1k
)";
  Circuit ckt = parse_netlist(net);
  EXPECT_EQ(ckt.devices().size(), 3u);
  const Solution op = dc_operating_point(ckt);
  EXPECT_NEAR(op.v(ckt.find_node("xe0.mid")), 0.5, 1e-9);
}

}  // namespace
}  // namespace rfmix::spice
