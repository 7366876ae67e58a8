// Parser fuzzing. The contract: whatever bytes arrive as a netlist (rfmixd
// takes decks from the network), parse_netlist returns a Circuit or throws
// ParseError, and nothing else. Each case applies a few random mutations to
// a deck from a fixed corpus (hand-written decks covering every card kind,
// plus small generated arrays): byte flips; dropped and duplicated tokens
// and lines; stray '+', '*', ';', '(' and '='; an unterminated or a
// self-instantiating .subckt; extreme numbers; 64 KB tokens and NUL bytes.
// The seed is fixed, so a failure reproduces by case index.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/templates.hpp"
#include "mathx/rng.hpp"
#include "spice/parser.hpp"

namespace rfmix::spice {
namespace {

std::vector<std::string> corpus() {
  std::vector<std::string> decks = {
      "* divider\nV1 in 0 DC 10\nR1 in mid 6k\nR2 mid 0 4k\n.end\n",
      "V1 in 0 SIN(0.6 0.1 2.4g 30 1n) AC 1 90\nR1 in 0 50\nC1 in 0 1p\nL1 in x 1n\n"
      "RX x 0 1k\n",
      "V1 a 0 PULSE(0 1.2 1n 0.1n 0.1n 4n 10n)\nI2 b 0 PWL(0 0, 1u 1m, 2u 0.5m)\n"
      "R1 a 0 1k\nR2 b 0 1k\n",
      "VDD vdd 0 1.2\nVIN in 0 0.3\nM1 out in vdd vdd PMOS W=20u L=65n\nRL out 0 5k\n"
      "M2 out in 0 0 NMOS W=10u\n+ L=65n\nE1 buf 0 out 0 2.0\nG1 0 isink buf 0 1m\n"
      "RS isink 0 1k\nD1 buf 0 IS=1e-14 N=1.0\n",
      "V1 in 0 DC 0 AC 1\nK1 in 0 sec 0 4n 1n 0.9 0.2\nRL sec 0 1meg\n",
      ".model nch nmos\n+ vto=0.35\n.subckt div in\n+ out\nR1 in out\n+ 1k\nR2 out 0 1k\n"
      ".ends\nV1 a 0\n+ DC 2\nX1 a m\n+ div\nX2 m q div ; second stage\n",
      ".subckt half in out\nR1 in out 1k\nR2 out 0 1k\n.ends\n.subckt quarter in out\n"
      "X1 in mid half\nX2 mid out half\n.ends\nV1 a 0 DC 4\nXQ a b quarter\nRL b 0 1e12\n",
      "V1 IN 0 5      * inline comment\r\nr1 IN out 1K\r\nR2 OUT 0 1k\r\n",
  };
  for (const char* id : {"rx_array", "mixer_slice", "ladder"}) {
    for (const bool hierarchical : {false, true}) {
      gen::GenSpec s;
      s.template_id = id;
      s.elements = 2;
      s.paths = 2;
      s.sections = 2;
      s.depth = 2;
      s.zbb_c = 1e-12;
      s.mismatch = s.template_id == "ladder" ? 0.0 : 0.05;
      s.hierarchical = hierarchical;
      decks.push_back(gen::render_netlist(s));
    }
  }
  return decks;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string deck) {
    const int count = 1 + static_cast<int>(pick(4));
    for (int i = 0; i < count; ++i) mutate_once(deck);
    return deck;
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_.uniform_index(n)); }

  /// [begin, end) of a random whitespace-delimited token, or {0, 0}.
  std::pair<std::size_t, std::size_t> token(const std::string& d) {
    if (d.empty()) return {0, 0};
    std::size_t i = pick(d.size());
    while (i < d.size() && is_blank(d[i])) ++i;
    if (i == d.size()) return {0, 0};
    std::size_t b = i, e = i;
    while (b > 0 && !is_blank(d[b - 1])) --b;
    while (e < d.size() && !is_blank(d[e])) ++e;
    return {b, e};
  }

  /// [begin, end) of a random line including its '\n'.
  std::pair<std::size_t, std::size_t> line(const std::string& d) {
    if (d.empty()) return {0, 0};
    std::size_t b = pick(d.size());
    while (b > 0 && d[b - 1] != '\n') --b;
    std::size_t e = d.find('\n', b);
    e = e == std::string::npos ? d.size() : e + 1;
    return {b, e};
  }

  static bool is_blank(char c) { return c == ' ' || c == '\n' || c == '\t' || c == '\r'; }

  void mutate_once(std::string& d) {
    static const char* const kExtremes[] = {
        "1e308",  "-1e308", "1.7976931348623157e308", "1e309",  "4.9e-324", "1e-310",
        "1e99999", "-1e-99999", "0x1p-1074", "0x1p1024", "nan", "inf", "-0", "+", "-",
        "1e", ".", "0x", "1mil", "1meg"};
    static const char kStray[] = {'+', '*', ';', '(', '=', ')', ',', '\n'};
    switch (pick(12)) {
      case 0:  // byte flip
        if (!d.empty()) d[pick(d.size())] = static_cast<char>(pick(256));
        break;
      case 1: {  // drop a token
        const auto [b, e] = token(d);
        d.erase(b, e - b);
        break;
      }
      case 2: {  // duplicate a token
        const auto [b, e] = token(d);
        const std::string copy = d.substr(b, e - b);
        d.insert(e, 1, ' ');
        d.insert(e + 1, copy);
        break;
      }
      case 3: {  // drop a line
        const auto [b, e] = line(d);
        d.erase(b, e - b);
        break;
      }
      case 4: {  // duplicate a line
        const auto [b, e] = line(d);
        d.insert(e, d.substr(b, e - b));
        break;
      }
      case 5:  // stray character anywhere
        d.insert(d.empty() ? 0 : pick(d.size()), 1, kStray[pick(sizeof kStray)]);
        break;
      case 6: {  // stray character at a line start
        const auto [b, e] = line(d);
        (void)e;
        d.insert(b, 1, kStray[pick(sizeof kStray)]);
        break;
      }
      case 7:  // unterminated .subckt
        d += ".subckt open a b\nR1 a b 1k\n";
        break;
      case 8:  // self-instantiating .subckt
        d += ".subckt self a\nRS a 0 1k\nX1 a self\n.ends\nXSELF n1 self\n";
        break;
      case 9: {  // an extreme number in place of a token
        const auto [b, e] = token(d);
        d.replace(b, e - b, kExtremes[pick(sizeof kExtremes / sizeof *kExtremes)]);
        break;
      }
      case 10: {  // a 64 KB token: digits (a huge number) or letters (a name)
        const auto [b, e] = token(d);
        d.replace(b, e - b, std::string(65536, pick(2) == 0 ? '7' : 'n'));
        break;
      }
      default:  // NUL bytes
        d.insert(d.empty() ? 0 : pick(d.size()), std::string(1 + pick(3), '\0'));
        break;
    }
  }

  mathx::Rng rng_;
};

TEST(ParserFuzz, EveryDeckParsesOrThrowsParseError) {
  constexpr int kCases = 6000;
  const std::vector<std::string> decks = corpus();
  Mutator mutator(0x5eedf00du);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string deck = mutator.mutate(decks[static_cast<std::size_t>(i) % decks.size()]);
    try {
      parse_netlist(deck);
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << ": " << e.what() << "\n" << deck.substr(0, 2000);
    } catch (...) {
      ADD_FAILURE() << "case " << i << ": non-standard exception\n" << deck.substr(0, 2000);
    }
  }
  // Both outcomes are exercised, so the mutations neither all break the
  // decks nor all miss the parser.
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_GT(rejected, kCases / 10);
}

}  // namespace
}  // namespace rfmix::spice
