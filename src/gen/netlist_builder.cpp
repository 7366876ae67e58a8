#include "gen/netlist_builder.hpp"

#include <charconv>
#include <stdexcept>

#include "obs/json_writer.hpp"

namespace rfmix::gen {

namespace {

/// The parser types a card by the first letter of the last '.'-separated
/// name segment; enforce that here so a template can never emit a card the
/// parser will read as a different device.
void check_leaf_type(char type, std::string_view name) {
  if (name.empty()) throw std::invalid_argument("device name must not be empty");
  const std::size_t dot = name.rfind('.');
  const std::size_t leaf = (dot == std::string_view::npos) ? 0 : dot + 1;
  if (leaf >= name.size())
    throw std::invalid_argument("device name '" + std::string(name) +
                                "' has an empty leaf segment");
  if (name[leaf] != type)
    throw std::invalid_argument("device name '" + std::string(name) +
                                "' does not start with '" + std::string(1, type) +
                                "' (parser types cards by leaf-segment initial)");
}

}  // namespace

void Name::Piece::append_to(std::string& out) const {
  if (!is_number_) {
    out += text_;
    return;
  }
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, number_).ptr);
}

void Name::append_to(std::string& out) const {
  if (pieces_.size() == 0) {
    whole_.append_to(out);
    return;
  }
  for (const Piece& p : pieces_) p.append_to(out);
}

std::string Name::str() const {
  std::string out;
  append_to(out);
  return out;
}

Value::Value(double v)
    : len_(static_cast<std::size_t>(obs::json::write_number(buf_, v) - buf_)) {}

std::string value_token(double v) { return obs::json::number(v); }

NetlistBuilder& NetlistBuilder::comment(std::string_view text) {
  buf_ += "* ";
  buf_ += text;
  buf_ += '\n';
  return *this;
}

NetlistBuilder& NetlistBuilder::raw(std::string_view line) {
  buf_ += line;
  buf_ += '\n';
  return *this;
}

void NetlistBuilder::begin_card(char type, const Name& name,
                                std::initializer_list<Name> nodes) {
  const std::size_t start = buf_.size();
  name.append_to(buf_);
  try {
    check_leaf_type(type, std::string_view(buf_).substr(start));
  } catch (...) {
    buf_.resize(start);
    throw;
  }
  for (const Name& n : nodes) {
    buf_ += ' ';
    n.append_to(buf_);
  }
}

NetlistBuilder& NetlistBuilder::end_card(std::string_view key, const Value& v) {
  buf_ += ' ';
  buf_ += key;
  buf_ += v.text();
  buf_ += '\n';
  ++cards_;
  return *this;
}

NetlistBuilder& NetlistBuilder::resistor(const Name& name, const Name& a, const Name& b,
                                         const Value& ohms) {
  begin_card('r', name, {a, b});
  return end_card("", ohms);
}

NetlistBuilder& NetlistBuilder::capacitor(const Name& name, const Name& a, const Name& b,
                                          const Value& farads) {
  begin_card('c', name, {a, b});
  return end_card("", farads);
}

NetlistBuilder& NetlistBuilder::inductor(const Name& name, const Name& a, const Name& b,
                                         const Value& henries) {
  begin_card('l', name, {a, b});
  return end_card("", henries);
}

NetlistBuilder& NetlistBuilder::vsource_dc(const Name& name, const Name& p, const Name& m,
                                           const Value& volts) {
  begin_card('v', name, {p, m});
  return end_card("dc ", volts);
}

NetlistBuilder& NetlistBuilder::isource_dc(const Name& name, const Name& p, const Name& m,
                                           const Value& amps) {
  begin_card('i', name, {p, m});
  return end_card("dc ", amps);
}

NetlistBuilder& NetlistBuilder::mosfet(const Name& name, const Name& d, const Name& g,
                                       const Name& s, const Name& b, std::string_view model,
                                       const Value& w, const Value& l) {
  begin_card('m', name, {d, g, s, b});
  buf_ += ' ';
  buf_ += model;
  buf_ += " w=";
  buf_ += w.text();
  return end_card("l=", l);
}

NetlistBuilder& NetlistBuilder::instance(const Name& name, std::initializer_list<Name> nodes,
                                         const Name& subckt) {
  begin_card('x', name, nodes);
  buf_ += ' ';
  subckt.append_to(buf_);
  buf_ += '\n';
  ++cards_;
  return *this;
}

NetlistBuilder& NetlistBuilder::begin_subckt(const Name& name,
                                             std::initializer_list<Name> ports) {
  if (in_subckt_)
    throw std::invalid_argument("nested .subckt definitions are not supported");
  if (ports.size() == 0)
    throw std::invalid_argument(".subckt needs at least one port");
  in_subckt_ = true;
  buf_ += ".subckt ";
  name.append_to(buf_);
  for (const Name& p : ports) {
    buf_ += ' ';
    p.append_to(buf_);
  }
  buf_ += '\n';
  return *this;
}

NetlistBuilder& NetlistBuilder::end_subckt() {
  if (!in_subckt_) throw std::invalid_argument(".ends without .subckt");
  in_subckt_ = false;
  buf_ += ".ends\n";
  return *this;
}

}  // namespace rfmix::gen
