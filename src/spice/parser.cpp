#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "mathx/units.hpp"
#include "spice/devices_diode.hpp"
#include "spice/devices_magnetics.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_sources.hpp"
#include "spice/mosfet.hpp"
#include "spice/tech65.hpp"
#include "spice/waveform.hpp"

namespace rfmix::spice {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Split a line into tokens; '(' ')' ',' become separate tokens and '=' is
/// isolated so key=value pairs tokenize as {key, "=", value}.
std::vector<std::string> tokenize(const std::string& line) {
  std::string norm;
  norm.reserve(line.size() + 8);
  for (const char c : line) {
    if (c == '(' || c == ')' || c == ',' || c == '=') {
      norm.push_back(' ');
      if (c == '=') norm.push_back('=');
      if (c == '=') norm.push_back(' ');
      if (c == '(') norm.push_back('(');
      if (c == '(') norm.push_back(' ');
      if (c == ')') norm.push_back(')');
      if (c == ')') norm.push_back(' ');
    } else {
      norm.push_back(c);
    }
  }
  std::vector<std::string> tokens;
  std::istringstream iss(norm);
  std::string tok;
  while (iss >> tok) tokens.push_back(to_lower(tok));
  return tokens;
}

}  // namespace

double parse_spice_number(const std::string& token) {
  std::size_t pos = 0;
  double base = 0.0;
  try {
    base = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed number: '" + token + "'");
  }
  std::string suffix = to_lower(token.substr(pos));
  // Trailing unit letters after the scale (e.g. "10uF") are ignored, as in
  // SPICE.
  double scale = 1.0;
  if (suffix.rfind("meg", 0) == 0) {
    scale = 1e6;
  } else if (!suffix.empty()) {
    switch (suffix[0]) {
      case 'f': scale = 1e-15; break;
      case 'p': scale = 1e-12; break;
      case 'n': scale = 1e-9; break;
      case 'u': scale = 1e-6; break;
      case 'm': scale = 1e-3; break;
      case 'k': scale = 1e3; break;
      case 'g': scale = 1e9; break;
      case 't': scale = 1e12; break;
      default: scale = 1.0; break;
    }
  }
  return base * scale;
}

namespace {

struct KeyValues {
  std::vector<std::pair<std::string, std::string>> kv;
  double get(const std::string& key, double fallback) const {
    for (const auto& [k, v] : kv)
      if (k == key) return parse_spice_number(v);
    return fallback;
  }
};

KeyValues extract_kv(const std::vector<std::string>& t, std::size_t from) {
  KeyValues out;
  for (std::size_t i = from; i + 2 < t.size() + 1; ++i) {
    if (i + 2 < t.size() && t[i + 1] == "=") out.kv.emplace_back(t[i], t[i + 2]);
  }
  return out;
}

/// Collect numeric arguments of a function-style token list: name ( a b c ).
std::vector<double> paren_args(const std::vector<std::string>& t, std::size_t& i,
                               int line_no, const char* what) {
  if (i >= t.size() || t[i] != "(")
    throw ParseError(line_no, std::string(what) + " must be followed by (");
  std::vector<double> args;
  std::size_t j = i + 1;
  while (j < t.size() && t[j] != ")") args.push_back(parse_spice_number(t[j++]));
  if (j >= t.size()) throw ParseError(line_no, std::string(what) + " missing )");
  i = j + 1;
  return args;
}

struct SourceSpec {
  Waveform wave = Waveform::dc(0.0);
  double ac_mag = 0.0;
  double ac_phase = 0.0;
};

SourceSpec parse_source(const std::vector<std::string>& t, std::size_t i, int line_no) {
  SourceSpec spec;
  bool have_wave = false;
  while (i < t.size()) {
    if (t[i] == "dc") {
      if (i + 1 >= t.size()) throw ParseError(line_no, "DC needs a value");
      spec.wave = Waveform::dc(parse_spice_number(t[i + 1]));
      have_wave = true;
      i += 2;
    } else if (t[i] == "sin") {
      ++i;
      const auto args = paren_args(t, i, line_no, "SIN");
      if (args.size() < 3) throw ParseError(line_no, "SIN needs offset amp freq");
      SineWave sw;
      sw.offset = args[0];
      sw.amplitude = args[1];
      sw.freq_hz = args[2];
      sw.phase_rad = args.size() > 3 ? args[3] * mathx::kPi / 180.0 : 0.0;
      sw.delay_s = args.size() > 4 ? args[4] : 0.0;
      spec.wave = Waveform(sw);
      have_wave = true;
    } else if (t[i] == "pulse") {
      ++i;
      const auto args = paren_args(t, i, line_no, "PULSE");
      if (args.size() < 2) throw ParseError(line_no, "PULSE needs v1 v2 ...");
      PulseWave pw;
      pw.v1 = args[0];
      pw.v2 = args[1];
      pw.delay_s = args.size() > 2 ? args[2] : 0.0;
      pw.rise_s = args.size() > 3 ? std::max(args[3], 1e-15) : 1e-12;
      pw.fall_s = args.size() > 4 ? std::max(args[4], 1e-15) : 1e-12;
      pw.width_s = args.size() > 5 ? args[5] : 0.0;
      pw.period_s = args.size() > 6 ? args[6] : 0.0;
      spec.wave = Waveform(pw);
      have_wave = true;
    } else if (t[i] == "pwl") {
      ++i;
      const auto args = paren_args(t, i, line_no, "PWL");
      if (args.size() < 2 || args.size() % 2 != 0)
        throw ParseError(line_no, "PWL needs t/v pairs");
      PwlWave pw;
      for (std::size_t k = 0; k + 1 < args.size(); k += 2)
        pw.points.emplace_back(args[k], args[k + 1]);
      spec.wave = Waveform(pw);
      have_wave = true;
    } else if (t[i] == "ac") {
      if (i + 1 >= t.size()) throw ParseError(line_no, "AC needs a magnitude");
      spec.ac_mag = parse_spice_number(t[i + 1]);
      i += 2;
      if (i < t.size()) {
        try {
          spec.ac_phase = parse_spice_number(t[i]) * mathx::kPi / 180.0;
          ++i;
        } catch (const std::exception&) {
          // Next token is not a number — leave it for the caller.
        }
      }
    } else if (!have_wave) {
      spec.wave = Waveform::dc(parse_spice_number(t[i]));  // bare value = DC
      have_wave = true;
      ++i;
    } else {
      ++i;
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Deck structure: tokenized cards, with .subckt bodies collected separately
// and expanded on X-card instantiation (flattening with hierarchical names).
//
// Elaboration is two-stage with structural sharing: each scope (the main
// deck, or one .subckt body) is COMPILED exactly once — tokens are type-
// dispatched, numbers parsed, model parameters resolved, and node tokens
// interned into scope-local slots — into a list of device prototypes.
// Instantiating a subcircuit then only maps slots to global NodeIds and
// replays the prototypes, so an M-instance array pays the string/parse
// work once, not M times, and elaboration cost stays linear in the number
// of *emitted* devices. Subcircuit bodies compile lazily on first
// instantiation (a never-instantiated body is never validated, matching
// the historical flattening semantics).

struct Card {
  int line_no = 0;
  std::vector<std::string> tokens;
};

struct Subckt {
  std::vector<std::string> ports;
  std::vector<Card> cards;
};

/// Scope-local node reference: slot index into the instance's NodeId
/// table, or kGroundSlot for "0"/"gnd" (ground never needs mapping).
inline constexpr int kGroundSlot = -1;
inline constexpr NodeId kNoNode = -1;

struct CompiledScope;

class Elaborator;

/// Per-instance emission state: the global circuit, this instance's
/// hierarchical prefix, and the lazily resolved slot -> NodeId table.
/// Slots resolve on first use, so global node-creation order is identical
/// to parsing the equivalent flattened deck card by card — which is what
/// makes flat and hierarchical expansions of the same array solve
/// bit-identically (same NodeIds, same matrix ordering).
struct EmitCtx {
  Circuit& ckt;
  const CompiledScope& scope;
  Elaborator& elab;
  std::string prefix;  // "" at top level, "x1.x2" inside instances
  std::vector<NodeId> slots;
  int depth = 0;

  NodeId node(int slot);
  std::string qualify(const std::string& local) const {
    return prefix.empty() ? local : prefix + "." + local;
  }
};

struct Proto {
  int line_no = 0;
  std::string card0;  // original first token, for error framing
  std::function<void(EmitCtx&)> emit;
};

struct CompiledScope {
  std::vector<std::string> slot_names;  // local node token per slot
  std::vector<Proto> protos;            // in card order
};

NodeId EmitCtx::node(int slot) {
  if (slot == kGroundSlot) return kGround;
  NodeId& id = slots[static_cast<std::size_t>(slot)];
  if (id == kNoNode)
    id = ckt.node(qualify(scope.slot_names[static_cast<std::size_t>(slot)]));
  return id;
}

/// Compiles scopes on demand and memoizes them; owns nothing else.
class Elaborator {
 public:
  explicit Elaborator(const std::map<std::string, Subckt>& subckts)
      : subckts_(subckts) {}

  /// Compile the cards of one scope. `label` is empty for the main deck,
  /// the subckt name otherwise (cited in duplicate-name errors).
  std::unique_ptr<CompiledScope> compile(const std::vector<Card>& cards,
                                         const std::vector<std::string>& ports,
                                         const std::string& label);

  /// Memoized lazy compilation of a subckt body.
  const CompiledScope& compiled_subckt(const std::string& name, const Subckt& sub) {
    auto it = compiled_.find(name);
    if (it != compiled_.end()) return *it->second;
    auto scope = compile(sub.cards, sub.ports, name);
    return *compiled_.emplace(name, std::move(scope)).first->second;
  }

  const std::map<std::string, Subckt>& subckts() const { return subckts_; }

 private:
  const std::map<std::string, Subckt>& subckts_;
  std::unordered_map<std::string, std::unique_ptr<CompiledScope>> compiled_;
};

/// Emit every prototype of a compiled scope into `ctx`, framing non-parse
/// errors (device constructor validation) with the card's line number.
void emit_scope(EmitCtx& ctx) {
  if (ctx.depth > 20) throw ParseError(0, "subcircuit nesting too deep (recursion?)");
  for (const Proto& p : ctx.scope.protos) {
    try {
      p.emit(ctx);
    } catch (const ParseError&) {
      throw;  // already carries its line number
    } catch (const std::exception& e) {
      throw ParseError(p.line_no, std::string(e.what()) + " (card " + p.card0 + ")");
    }
  }
}

std::unique_ptr<CompiledScope> Elaborator::compile(const std::vector<Card>& cards,
                                                   const std::vector<std::string>& ports,
                                                   const std::string& label) {
  auto scope = std::make_unique<CompiledScope>();
  std::unordered_map<std::string, int> slot_index;
  // Ports own the leading slots. Assignment (not emplace) keeps the
  // historical "last port wins" behavior for a degenerate duplicated port
  // name.
  for (const std::string& p : ports) {
    slot_index[p] = static_cast<int>(scope->slot_names.size());
    scope->slot_names.push_back(p);
  }
  const std::size_t num_ports = ports.size();
  // Locals append in first-reference order, which (with lazy resolution in
  // EmitCtx::node) reproduces flat parsing's node-creation order exactly.
  const auto slot = [&](const std::string& tok) -> int {
    if (tok == "0" || tok == "gnd") return kGroundSlot;
    const auto it = slot_index.find(tok);
    if (it != slot_index.end()) return it->second;
    const int s = static_cast<int>(scope->slot_names.size());
    slot_index.emplace(tok, s);
    scope->slot_names.push_back(tok);
    return s;
  };
  (void)num_ports;

  // Duplicate device / instance names are rejected per scope at compile
  // time: Circuit::find_device silently returns the first match and the
  // svc/ cache keys assume names are unique, so a colliding card is always
  // a netlist bug. Distinct instance prefixes keep legitimate subcircuit
  // reuse collision-free, and a body-level duplicate is reported once,
  // citing the subckt it lives in.
  std::unordered_map<std::string, int> device_lines;

  for (const Card& card : cards) {
    const auto& t = card.tokens;
    const int line_no = card.line_no;
    try {
      const auto [dup_it, inserted] = device_lines.emplace(t[0], line_no);
      if (!inserted)
        throw ParseError(line_no,
                         "duplicate device name '" + t[0] + "'" +
                             (label.empty() ? std::string()
                                            : " in .subckt '" + label + "'") +
                             " (first defined at line " +
                             std::to_string(dup_it->second) + ")");
      auto need = [&](std::size_t n) {
        if (t.size() < n) throw ParseError(line_no, "too few fields for " + t[0]);
      };
      const std::string nm = t[0];
      // Hierarchical device names (as produced by elaboration, or written
      // directly in a generated flat deck) are typed by their leaf
      // segment: "xe0.rsw" is a resistor named xe0.rsw, so a flattened
      // deck round-trips through the parser with elaboration-identical
      // names.
      const std::size_t dot = nm.rfind('.');
      const char type_char = (dot == std::string::npos || dot + 1 >= nm.size())
                                 ? nm[0]
                                 : nm[dot + 1];

      switch (type_char) {
        case 'r': {
          need(4);
          const int a = slot(t[1]), b = slot(t[2]);
          const double val = parse_spice_number(t[3]);
          scope->protos.push_back({line_no, nm, [nm, a, b, val](EmitCtx& c) {
            c.ckt.add<Resistor>(c.qualify(nm), c.node(a), c.node(b), val);
          }});
          break;
        }
        case 'c': {
          need(4);
          const int a = slot(t[1]), b = slot(t[2]);
          const double val = parse_spice_number(t[3]);
          scope->protos.push_back({line_no, nm, [nm, a, b, val](EmitCtx& c) {
            c.ckt.add<Capacitor>(c.qualify(nm), c.node(a), c.node(b), val);
          }});
          break;
        }
        case 'l': {
          need(4);
          const int a = slot(t[1]), b = slot(t[2]);
          const double val = parse_spice_number(t[3]);
          scope->protos.push_back({line_no, nm, [nm, a, b, val](EmitCtx& c) {
            c.ckt.add<Inductor>(c.qualify(nm), c.node(a), c.node(b), val);
          }});
          break;
        }
        case 'k': {
          // Kname p1 m1 p2 m2 L1 L2 coupling [resr]: coupled inductor pair.
          need(8);
          const int n1 = slot(t[1]), n2 = slot(t[2]), n3 = slot(t[3]), n4 = slot(t[4]);
          const double l1 = parse_spice_number(t[5]);
          const double l2 = parse_spice_number(t[6]);
          const double coup = parse_spice_number(t[7]);
          const double resr = t.size() > 8 ? parse_spice_number(t[8]) : 0.1;
          scope->protos.push_back(
              {line_no, nm, [nm, n1, n2, n3, n4, l1, l2, coup, resr](EmitCtx& c) {
                c.ckt.add<CoupledInductors>(c.qualify(nm), c.node(n1), c.node(n2),
                                            c.node(n3), c.node(n4), l1, l2, coup, resr);
              }});
          break;
        }
        case 'v': {
          need(3);
          const int a = slot(t[1]), b = slot(t[2]);
          const SourceSpec spec = parse_source(t, 3, line_no);
          scope->protos.push_back({line_no, nm, [nm, a, b, spec](EmitCtx& c) {
            auto& v = c.ckt.add<VoltageSource>(c.qualify(nm), c.node(a), c.node(b),
                                               spec.wave);
            if (spec.ac_mag != 0.0) v.set_ac(spec.ac_mag, spec.ac_phase);
          }});
          break;
        }
        case 'i': {
          need(3);
          const int a = slot(t[1]), b = slot(t[2]);
          const SourceSpec spec = parse_source(t, 3, line_no);
          scope->protos.push_back({line_no, nm, [nm, a, b, spec](EmitCtx& c) {
            auto& src = c.ckt.add<CurrentSource>(c.qualify(nm), c.node(a), c.node(b),
                                                 spec.wave);
            if (spec.ac_mag != 0.0) src.set_ac(spec.ac_mag, spec.ac_phase);
          }});
          break;
        }
        case 'd': {
          need(3);
          const int a = slot(t[1]), b = slot(t[2]);
          const KeyValues kv = extract_kv(t, 3);
          DiodeParams dp;
          dp.is = kv.get("is", dp.is);
          dp.n = kv.get("n", dp.n);
          scope->protos.push_back({line_no, nm, [nm, a, b, dp](EmitCtx& c) {
            c.ckt.add<Diode>(c.qualify(nm), c.node(a), c.node(b), dp);
          }});
          break;
        }
        case 'm': {
          need(6);
          const std::string& model = t[5];
          const KeyValues kv = extract_kv(t, 6);
          const double w = kv.get("w", 1e-6);
          const double l = kv.get("l", tech65::kLmin);
          MosParams mp;
          if (model == "nmos") {
            mp = tech65::nmos(w, l);
          } else if (model == "pmos") {
            mp = tech65::pmos(w, l);
          } else {
            throw ParseError(line_no, "unknown MOS model: " + model);
          }
          const int d = slot(t[1]), g = slot(t[2]), s = slot(t[3]), bl = slot(t[4]);
          scope->protos.push_back({line_no, nm, [nm, d, g, s, bl, mp](EmitCtx& c) {
            c.ckt.add<Mosfet>(c.qualify(nm), c.node(d), c.node(g), c.node(s),
                              c.node(bl), mp);
          }});
          break;
        }
        case 'e': {
          need(6);
          const int n1 = slot(t[1]), n2 = slot(t[2]), n3 = slot(t[3]), n4 = slot(t[4]);
          const double gain = parse_spice_number(t[5]);
          scope->protos.push_back({line_no, nm, [nm, n1, n2, n3, n4, gain](EmitCtx& c) {
            c.ckt.add<Vcvs>(c.qualify(nm), c.node(n1), c.node(n2), c.node(n3),
                            c.node(n4), gain);
          }});
          break;
        }
        case 'g': {
          need(6);
          const int n1 = slot(t[1]), n2 = slot(t[2]), n3 = slot(t[3]), n4 = slot(t[4]);
          const double gm = parse_spice_number(t[5]);
          scope->protos.push_back({line_no, nm, [nm, n1, n2, n3, n4, gm](EmitCtx& c) {
            c.ckt.add<Vccs>(c.qualify(nm), c.node(n1), c.node(n2), c.node(n3),
                            c.node(n4), gm);
          }});
          break;
        }
        case 'x': {
          // Xname n1 n2 ... subname: instantiate a subcircuit. The body
          // compiles lazily (memoized) at first emission; the port-count
          // contract is checkable now from the definition header alone.
          need(3);
          const std::string subname = t.back();
          const auto it = subckts_.find(subname);
          if (it == subckts_.end())
            throw ParseError(line_no, "unknown subcircuit: " + subname);
          const Subckt& sub = it->second;
          const std::size_t given = t.size() - 2;
          if (given != sub.ports.size())
            throw ParseError(line_no, "subcircuit " + subname + " expects " +
                                          std::to_string(sub.ports.size()) +
                                          " nodes, got " + std::to_string(given));
          std::vector<int> args;
          args.reserve(given);
          for (std::size_t k = 0; k < given; ++k) args.push_back(slot(t[k + 1]));
          const Subckt* subp = &sub;
          scope->protos.push_back({line_no, nm, [nm, subname, subp, args](EmitCtx& c) {
            const CompiledScope& child = c.elab.compiled_subckt(subname, *subp);
            EmitCtx cc{c.ckt,
                       child,
                       c.elab,
                       c.qualify(nm),
                       std::vector<NodeId>(child.slot_names.size(), kNoNode),
                       c.depth + 1};
            for (std::size_t k = 0; k < args.size(); ++k)
              cc.slots[k] = c.node(args[k]);
            emit_scope(cc);
          }});
          break;
        }
        default:
          throw ParseError(line_no, "unknown card: " + t[0]);
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      // Value/model errors thrown below card level (number parsing, model
      // table lookups) get the card's line number attached here.
      throw ParseError(line_no, std::string(e.what()) + " (card " + t[0] + ")");
    }
  }
  return scope;
}

}  // namespace

Circuit parse_netlist(const std::string& text) {
  // Pass 1: tokenize all lines, splitting .subckt bodies out of the main
  // deck.
  std::vector<Card> main_cards;
  std::map<std::string, Subckt> subckts;

  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  Subckt* open_sub = nullptr;
  int sub_line = 0;  // line of the open .subckt header
  // Where a '+' continuation line appends its tokens: the previous device
  // card, the open .subckt header's ports, or `dropped` after a directive
  // the parser ignores (a multi-line .model). Null before the first card.
  std::vector<std::string>* cont = nullptr;
  std::vector<std::string> dropped;
  bool ended = false;
  while (std::getline(stream, line) && !ended) {
    ++line_no;
    const std::size_t star = line.find('*');
    if (star != std::string::npos) line = line.substr(0, star);
    auto t = tokenize(line);
    if (t.empty()) continue;
    if (t[0][0] == '+') {
      if (cont == nullptr)
        throw ParseError(line_no, "continuation line with no card to continue");
      t[0].erase(0, 1);
      for (std::string& tok : t)
        if (!tok.empty()) cont->push_back(std::move(tok));
      continue;
    }
    if (t[0][0] == '.') {
      dropped.clear();
      cont = &dropped;
      if (t[0] == ".subckt") {
        if (open_sub != nullptr)
          throw ParseError(line_no, "nested .subckt definitions are not supported");
        if (t.size() < 2)
          throw ParseError(line_no, ".subckt needs a name and at least one port");
        if (subckts.count(t[1]) != 0)
          throw ParseError(line_no, "duplicate .subckt name '" + t[1] + "'");
        Subckt sub;
        sub.ports.assign(t.begin() + 2, t.end());
        open_sub = &subckts.emplace(t[1], std::move(sub)).first->second;
        sub_line = line_no;
        cont = &open_sub->ports;
      } else if (t[0] == ".ends") {
        if (open_sub == nullptr) throw ParseError(line_no, ".ends without .subckt");
        if (open_sub->ports.empty())
          throw ParseError(sub_line, ".subckt needs a name and at least one port");
        open_sub = nullptr;
      } else if (t[0] == ".end") {
        if (open_sub != nullptr) throw ParseError(line_no, ".end inside .subckt");
        ended = true;
      }
      continue;  // other directives ignored
    }
    std::vector<Card>& cards = open_sub != nullptr ? open_sub->cards : main_cards;
    cards.push_back(Card{line_no, std::move(t)});
    cont = &cards.back().tokens;
  }
  if (open_sub != nullptr) throw ParseError(line_no, "unterminated .subckt");

  // Pass 2: compile the main scope, then emit (subckt bodies compile
  // lazily, once each, however many times they are instantiated).
  Circuit ckt;
  Elaborator elab(subckts);
  const std::unique_ptr<CompiledScope> main_scope = elab.compile(main_cards, {}, "");
  EmitCtx ctx{ckt, *main_scope, elab, "",
              std::vector<NodeId>(main_scope->slot_names.size(), kNoNode), 0};
  emit_scope(ctx);
  return ckt;
}

}  // namespace rfmix::spice
