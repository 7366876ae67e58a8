// Programmatic SPICE-deck construction (the FPGA-SPICE pattern: generate
// enormous decks from a higher-level description instead of writing them).
//
// NetlistBuilder is a thin, append-only emitter for the dialect
// spice::parse_netlist speaks: device cards, .subckt/.ends blocks, and
// subcircuit instances. Two properties matter more than convenience:
//
//  * Value round-trip: every numeric value is printed with the shortest
//    decimal that round-trips the exact double (obs::json::number), so a
//    generated deck parses back to bit-identical device parameters — the
//    precondition for flat and hierarchical renderings of the same design
//    solving bit-identically.
//  * Name discipline: the parser types a device card by the first letter
//    of its name's last '.'-separated segment, so flat renderings can
//    carry elaboration-style names ("xe0.rsw0"). The builder checks each
//    emitted name against the device type it is asked to emit and throws
//    on a mismatch, turning template bugs into immediate errors instead of
//    mis-typed circuits.
//
// Names and values are written straight into the deck buffer: a Name is
// spelled in pieces (Name{"xe", 12, ".rsw", 3} is "xe12.rsw3"), so a
// template composes hierarchical names without a temporary string each.
//
// See docs/gen.md.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/json_writer.hpp"

namespace rfmix::gen {

/// A device, node or subcircuit name, given whole or in pieces of text and
/// decimal integers. Like std::string_view it refers to its pieces and
/// must not outlive them: build it in the call that takes it.
class Name {
 public:
  class Piece {
   public:
    Piece(std::string_view text) : text_(text) {}
    Piece(const char* text) : text_(text) {}
    Piece(const std::string& text) : text_(text) {}
    Piece(int number) : number_(number), is_number_(true) {}
    void append_to(std::string& out) const;

   private:
    std::string_view text_;
    int number_ = 0;
    bool is_number_ = false;
  };

  Name(std::string_view text) : whole_(text) {}
  Name(const char* text) : whole_(text) {}
  Name(const std::string& text) : whole_(text) {}
  Name(std::initializer_list<Piece> pieces) : pieces_(pieces) {}

  void append_to(std::string& out) const;
  std::string str() const;

 private:
  Piece whole_{std::string_view()};
  std::initializer_list<Piece> pieces_;  // used when non-empty
};

/// A value token: the round-trip spelling of a double (obs::json::number),
/// formatted once at construction. Value parameters take a plain double
/// too; a template that writes one value into many cards formats it once.
class Value {
 public:
  Value(double v);
  std::string_view text() const { return {buf_, len_}; }

 private:
  char buf_[obs::json::kMaxNumberChars];
  std::size_t len_ = 0;
};

class NetlistBuilder {
 public:
  /// '*'-prefixed comment line (stripped by the parser).
  NetlistBuilder& comment(std::string_view text);

  /// Raw line, emitted verbatim. Escape hatch for cards the typed helpers
  /// do not cover; no name checking.
  NetlistBuilder& raw(std::string_view line);

  NetlistBuilder& resistor(const Name& name, const Name& a, const Name& b,
                           const Value& ohms);
  NetlistBuilder& capacitor(const Name& name, const Name& a, const Name& b,
                            const Value& farads);
  NetlistBuilder& inductor(const Name& name, const Name& a, const Name& b,
                           const Value& henries);
  NetlistBuilder& vsource_dc(const Name& name, const Name& p, const Name& m,
                             const Value& volts);
  NetlistBuilder& isource_dc(const Name& name, const Name& p, const Name& m,
                             const Value& amps);
  /// `model` is "nmos" or "pmos"; w/l in meters.
  NetlistBuilder& mosfet(const Name& name, const Name& d, const Name& g, const Name& s,
                         const Name& b, std::string_view model, const Value& w,
                         const Value& l);

  /// Xname n1 n2 ... subckt_name.
  NetlistBuilder& instance(const Name& name, std::initializer_list<Name> nodes,
                           const Name& subckt);

  /// .subckt blocks. Nesting definitions is rejected (as in the parser).
  NetlistBuilder& begin_subckt(const Name& name, std::initializer_list<Name> ports);
  NetlistBuilder& end_subckt();

  /// Number of device/instance cards emitted so far. Cards inside a
  /// .subckt body count once (what elaboration multiplies them into is the
  /// template's business, see gen::device_count).
  std::size_t cards() const { return cards_; }

  /// Finish (closes nothing; .end is optional in the dialect) and take the
  /// deck text.
  std::string str() && { return std::move(buf_); }
  const std::string& text() const { return buf_; }

 private:
  /// Writes "name n1 n2 ..." after checking the name's leaf type; the
  /// caller appends the rest and ends the card.
  void begin_card(char type, const Name& name, std::initializer_list<Name> nodes);
  NetlistBuilder& end_card(std::string_view key, const Value& v);  // " <key><value>\n"

  std::string buf_;
  std::size_t cards_ = 0;
  bool in_subckt_ = false;
};

/// Shortest-round-trip decimal spelling of `v` as a SPICE value token
/// (delegates to obs::json::number; parse_spice_number reads it back to
/// the exact same double).
std::string value_token(double v);

}  // namespace rfmix::gen
