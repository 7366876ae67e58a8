// Text netlist parser for a compact SPICE dialect.
//
// Lexing: case-insensitive. '*' and ';' start a comment that runs to the
// end of the line. Whitespace and ',' separate tokens; '(', ')' and '='
// are tokens of their own. A line starting with '+' continues the previous
// card (or a .subckt header's ports). Every number takes an engineering
// suffix, f p n u m k meg g t or mil (25.4e-6), and ignores trailing unit
// letters ("10uF").
//
// Supported cards:
//   Rname  n+ n-  value
//   Cname  n+ n-  value
//   Lname  n+ n-  value
//   Kname  p1 m1 p2 m2 L1 L2 k [r_winding]     (coupled inductor pair)
//   Vname  n+ n-  [DC v | v] [SIN(off amp freq [phase_deg [delay]])]
//                 [PULSE(v1 v2 [delay [rise [fall [width [period]]]]])]
//                 [PWL(t1 v1 t2 v2 ...)] [AC mag [phase_deg]]
//   Iname  n+ n-  (same source syntax)
//   Dname  a  c   [IS=.. N=..]
//   Mname  d g s b NMOS|PMOS [W=..] [L=..]
//   Ename  p m c d gain                        (VCVS)
//   Gname  p m c d gm                          (VCCS)
//   Xname  n1 n2 ... subckt                    (instance, named x1.r1 etc.)
//   .subckt name port1 port2 ... / .ends       (not nested; ground is global)
//   .end (optional; stops reading). Other directives are ignored.
// A card is typed by the first letter of the last '.'-separated segment of
// its name, so a flat deck can carry elaborated names ("xe0.rsw0").
//
// MOS devices use the tech65 parameter set for the named type.
#pragma once

#include <string>
#include <string_view>

#include "spice/circuit.hpp"

namespace rfmix::spice {

class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& what)
      : std::runtime_error("netlist line " + std::to_string(line) + ": " + what) {}
};

/// Parse engineering-notation number ("1.5k", "10u", "2meg", "0x10",
/// "inf"). Throws std::invalid_argument ("malformed number: '<token>'") when
/// the token does not start with a number or the number is out of range
/// (overflow, or below the smallest normal double).
double parse_spice_number(std::string_view token);

/// Parse a netlist into a fresh Circuit.
Circuit parse_netlist(const std::string& text);

}  // namespace rfmix::spice
