// Text netlist parser for a compact SPICE dialect.
//
// Supported cards (case-insensitive, '*' comments, '+' continuation lines,
// engineering suffixes f p n u m k meg g t on every number):
//   Rname  n+ n-  value
//   Cname  n+ n-  value
//   Lname  n+ n-  value
//   Vname  n+ n-  [DC v] [SIN(off amp freq [phase_deg [delay]])] [AC mag [phase_deg]]
//   Iname  n+ n-  (same source syntax)
//   Dname  a  c   [IS=.. N=..]
//   Mname  d g s b NMOS|PMOS [W=..] [L=..]
//   Ename  p m c d gain            (VCVS)
//   Gname  p m c d gm              (VCCS)
//   .end (optional)
//
// MOS devices use the tech65 parameter set for the named type.
#pragma once

#include <string>

#include "spice/circuit.hpp"

namespace rfmix::spice {

class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& what)
      : std::runtime_error("netlist line " + std::to_string(line) + ": " + what) {}
};

/// Parse engineering-notation number ("1.5k", "10u", "2meg"). Throws
/// std::invalid_argument on malformed input.
double parse_spice_number(const std::string& token);

/// Parse a netlist into a fresh Circuit.
Circuit parse_netlist(const std::string& text);

}  // namespace rfmix::spice
