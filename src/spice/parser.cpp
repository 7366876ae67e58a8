#include "spice/parser.hpp"

#include <algorithm>
#include <array>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <functional>
#include <vector>

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

char ascii_lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c; }

bool is_hex_digit(char c) {
  return (c >= '0' && c <= '9') || (ascii_lower(c) >= 'a' && ascii_lower(c) <= 'f');
}

bool starts_with_lower(std::string_view s, std::string_view lower_prefix) {
  if (s.size() < lower_prefix.size()) return false;
  for (std::size_t i = 0; i < lower_prefix.size(); ++i)
    if (ascii_lower(s[i]) != lower_prefix[i]) return false;
  return true;
}

/// parse_spice_number without the throw: false when `token` does not start
/// with a number, or the number is out of range.
bool read_number(std::string_view token, double& out) {
  const char* p = token.data();
  const char* const end = p + token.size();
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  if (p == end || *p == '+' || *p == '-') return false;
  double base = 0.0;
  std::from_chars_result r{p, std::errc::invalid_argument};
  // "0x" introduces a hexadecimal float, as in strtod; "0x" with no hex
  // digit after it is the number 0 followed by a suffix.
  if (end - p > 2 && p[0] == '0' && ascii_lower(p[1]) == 'x' &&
      (is_hex_digit(p[2]) || p[2] == '.'))
    r = std::from_chars(p + 2, end, base, std::chars_format::hex);
  if (r.ec == std::errc::invalid_argument) r = std::from_chars(p, end, base);
  // Out of range: overflow, underflow to zero, or a subnormal result.
  if (r.ec != std::errc{} || (base != 0.0 && std::fabs(base) < DBL_MIN)) return false;
  // Trailing unit letters after the scale (e.g. "10uF") are ignored, as in
  // SPICE.
  const std::string_view suffix(r.ptr, static_cast<std::size_t>(end - r.ptr));
  double scale = 1.0;
  if (starts_with_lower(suffix, "meg")) {
    scale = 1e6;
  } else if (starts_with_lower(suffix, "mil")) {
    scale = 25.4e-6;
  } else if (!suffix.empty()) {
    switch (ascii_lower(suffix[0])) {
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
  out = (negative ? -base : base) * scale;
  return true;
}

}  // namespace

double parse_spice_number(std::string_view token) {
  double v = 0.0;
  if (!read_number(token, v))
    throw std::invalid_argument("malformed number: '" + std::string(token) + "'");
  return v;
}

namespace {

// ---------------------------------------------------------------------------
// Pass 1, the reader: one scan over a lower-cased copy of the deck. Tokens
// are views into that copy, kept in one arena; a card is a line number and
// a token range, and each .subckt body is a contiguous range of body cards.
//
// Lexing: whitespace and ',' separate tokens; '(', ')' and '=' are tokens
// of their own (so key=value reads as {key, "=", value}); '*' and ';' end
// the card. A line whose first character is '+' continues the previous
// card, the open .subckt header's ports, or an ignored directive.

enum CharClass : unsigned char { kWord, kSpace, kPunct, kComment, kEol };

constexpr std::array<CharClass, 256> make_char_classes() {
  std::array<CharClass, 256> t{};
  for (const char c : {' ', '\t', '\v', '\f', '\r', ','})
    t[static_cast<unsigned char>(c)] = kSpace;
  for (const char c : {'(', ')', '='}) t[static_cast<unsigned char>(c)] = kPunct;
  for (const char c : {'*', ';'}) t[static_cast<unsigned char>(c)] = kComment;
  t[static_cast<unsigned char>('\n')] = kEol;
  return t;
}

constexpr std::array<CharClass, 256> kCharClass = make_char_classes();

CharClass char_class(char c) { return kCharClass[static_cast<unsigned char>(c)]; }

using Tokens = std::vector<std::string_view>;

/// Open-addressing map from token views to ints (subckt names, node slots,
/// device lines). clear() is O(1) and keeps the table, so the per-scope
/// maps intern tokens without allocating once they have grown.
class ViewIndex {
 public:
  /// The value stored under `key`, after storing `value` there if `key`
  /// was absent (then `inserted` is true).
  struct Slot {
    int& value;
    bool inserted;
  };

  Slot emplace(std::string_view key, int value) {
    if (2 * (size_ + 1) > table_.size()) grow();
    Entry& e = table_[position(key)];
    const bool inserted = e.generation != generation_;
    if (inserted) {
      e = Entry{key, value, generation_};
      ++size_;
    }
    return {e.value, inserted};
  }

  const int* find(std::string_view key) const {
    if (table_.empty()) return nullptr;
    const Entry& e = table_[position(key)];
    return e.generation == generation_ ? &e.value : nullptr;
  }

  void clear() {
    ++generation_;
    size_ = 0;
  }

 private:
  struct Entry {
    std::string_view key;
    int value = 0;
    std::uint32_t generation = 0;  // live when equal to generation_
  };

  /// Position of the entry holding `key`, or of the free entry where it
  /// belongs.
  std::size_t position(std::string_view key) const {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(key) & mask;; i = (i + 1) & mask) {
      const Entry& e = table_[i];
      if (e.generation != generation_ || e.key == key) return i;
    }
  }

  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * table_.size()));
    old.swap(table_);
    size_ = 0;
    for (const Entry& e : old)
      if (e.generation == generation_) emplace(e.key, e.value);
  }

  std::vector<Entry> table_;  // size a power of two
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
};

struct Card {
  int line_no = 0;
  std::uint32_t first = 0;  // token range [first, last)
  std::uint32_t last = 0;
};

struct Subckt {
  std::string_view name;
  int line_no = 0;  // header line
  std::uint32_t ports_first = 0, ports_last = 0;  // token range
  std::uint32_t cards_first = 0, cards_last = 0;  // range in Deck::body_cards
};

struct Deck {
  std::string text;  // lower-cased copy of the input; every view points here
  Tokens tokens;
  std::vector<Card> main_cards;
  std::vector<Card> body_cards;
  std::vector<Subckt> subckts;
  ViewIndex subckt_index;  // name -> index into subckts
};

std::uint32_t token_count(const Tokens& t) { return static_cast<std::uint32_t>(t.size()); }

/// Reads the deck's structure. Throws ParseError for structural errors
/// (.subckt nesting and naming, stray continuations); card contents are
/// checked when their scope compiles.
void read_deck(const std::string& src, Deck& d) {
  d.text.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) d.text[i] = ascii_lower(src[i]);
  const std::string_view text = d.text;
  const std::size_t n = text.size();
  d.tokens.reserve(n / 6);

  enum class Cont { kNone, kCard, kPorts, kDropped };
  Cont cont = Cont::kNone;
  std::vector<Card>* cont_cards = nullptr;
  Subckt* open = nullptr;  // stays valid: no .subckt is added while one is open
  int line_no = 0;
  std::size_t pos = 0;
  while (pos < n) {
    ++line_no;
    const std::uint32_t first = token_count(d.tokens);
    bool continuation = false;
    bool at_start = true;
    std::size_t i = pos;
    while (i < n) {
      const CharClass cls = char_class(text[i]);
      if (cls == kEol) break;
      if (cls == kComment) {
        while (i < n && text[i] != '\n') ++i;
        break;
      }
      if (cls == kSpace) {
        ++i;
        continue;
      }
      if (at_start) {
        at_start = false;
        if (text[i] == '+') {
          continuation = true;
          ++i;
          continue;
        }
      }
      if (cls == kPunct) {
        d.tokens.push_back(text.substr(i, 1));
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < n && char_class(text[i]) == kWord) ++i;
      d.tokens.push_back(text.substr(start, i - start));
    }
    pos = i + 1;

    if (continuation) {
      switch (cont) {
        case Cont::kNone:
          throw ParseError(line_no, "continuation line with no card to continue");
        case Cont::kCard: cont_cards->back().last = token_count(d.tokens); break;
        case Cont::kPorts: open->ports_last = token_count(d.tokens); break;
        case Cont::kDropped: d.tokens.resize(first); break;
      }
      continue;
    }
    if (token_count(d.tokens) == first) continue;  // blank or comment line

    const std::string_view head = d.tokens[first];
    if (head[0] == '.') {
      cont = Cont::kDropped;
      if (head == ".subckt") {
        if (open != nullptr)
          throw ParseError(line_no, "nested .subckt definitions are not supported");
        if (token_count(d.tokens) - first < 2)
          throw ParseError(line_no, ".subckt needs a name and at least one port");
        const std::string_view name = d.tokens[first + 1];
        if (!d.subckt_index.emplace(name, static_cast<int>(d.subckts.size())).inserted)
          throw ParseError(line_no, "duplicate .subckt name '" + std::string(name) + "'");
        const auto body = static_cast<std::uint32_t>(d.body_cards.size());
        open = &d.subckts.emplace_back(
            Subckt{name, line_no, first + 2, token_count(d.tokens), body, body});
        cont = Cont::kPorts;
        continue;  // the header's tokens hold the ports
      }
      if (head == ".ends") {
        if (open == nullptr) throw ParseError(line_no, ".ends without .subckt");
        if (open->ports_first == open->ports_last)
          throw ParseError(open->line_no, ".subckt needs a name and at least one port");
        open->cards_last = static_cast<std::uint32_t>(d.body_cards.size());
        open = nullptr;
      } else if (head == ".end") {
        if (open != nullptr) throw ParseError(line_no, ".end inside .subckt");
        return;
      }
      d.tokens.resize(first);  // other directives are ignored
      continue;
    }
    cont_cards = open != nullptr ? &d.body_cards : &d.main_cards;
    cont_cards->push_back(Card{line_no, first, token_count(d.tokens)});
    cont = Cont::kCard;
  }
  if (open != nullptr) throw ParseError(line_no, "unterminated .subckt");
}

// ---------------------------------------------------------------------------
// Pass 2, the elaborator. Each scope (the main deck, or one .subckt body)
// COMPILES once into plain prototype records: cards typed, numbers parsed,
// model parameters resolved, and node tokens interned into scope-local
// slots. Instantiating a subcircuit then maps its port slots to the
// caller's NodeIds and replays the records through one switch, so an
// M-instance array pays the text work once, not M times, and elaboration
// stays linear in the number of emitted devices. Bodies compile lazily at
// their first instantiation (a never-instantiated body is never
// validated).
//
// Slots resolve to NodeIds lazily, on first use during emission, and each
// device resolves its terminals last to first. Node creation order, which
// fixes the matrix ordering, is therefore that of parsing the equivalent
// flattened deck card by card: flat and hierarchical renderings of the
// same array get the same NodeIds and solve bit-identically.

enum class Kind : std::uint8_t {
  kResistor, kCapacitor, kInductor, kCoupled, kVsource, kIsource,
  kDiode, kMosfet, kVcvs, kVccs, kInstance,
};

/// Scope-local node reference for "0"/"gnd" (ground never needs mapping).
inline constexpr int kGroundSlot = -1;
inline constexpr NodeId kNoNode = -1;

struct Proto {
  Kind kind = Kind::kResistor;
  int line_no = 0;
  std::string_view name;  // the card's own (scope-local) name
  std::array<int, 4> slots{};
  std::array<double, 4> values{};
  std::uint32_t side = 0;  // index into sources, mos or instances
};

struct SourceSpec {
  Waveform wave = Waveform::dc(0.0);
  double ac_mag = 0.0;
  double ac_phase = 0.0;
};

struct Instance {
  std::uint32_t subckt = 0;
  std::uint32_t args_first = 0, args_last = 0;  // range in CompiledScope::args
};

struct CompiledScope {
  std::vector<std::string_view> slot_names;  // local node token per slot
  std::vector<Proto> protos;                 // in card order
  std::vector<SourceSpec> sources;
  std::vector<MosParams> mos;
  std::vector<Instance> instances;
  std::vector<int> args;  // instance argument slots
};

/// One card's tokens during compilation.
class CardTokens {
 public:
  CardTokens(const Tokens& all, const Card& c)
      : t_(all.data() + c.first), size_(c.last - c.first), line_no_(c.line_no) {}

  std::size_t size() const { return size_; }
  std::string_view operator[](std::size_t i) const { return t_[i]; }
  int line_no() const { return line_no_; }

  double number(std::size_t i) const { return parse_spice_number(t_[i]); }

  /// Value of the first `key = value` triple at or after `from`, or
  /// `fallback` when there is none.
  double keyed(std::size_t from, std::string_view key, double fallback) const {
    for (std::size_t i = from; i + 2 < size_; ++i)
      if (t_[i + 1] == "=" && t_[i] == key) return number(i + 2);
    return fallback;
  }

  /// Numeric arguments of `name ( a b c )` starting at the "(" at `i`;
  /// leaves `i` after the ")".
  std::vector<double> paren_args(std::size_t& i, const char* what) const {
    if (i >= size_ || t_[i] != "(")
      throw ParseError(line_no_, std::string(what) + " must be followed by (");
    std::vector<double> args;
    std::size_t j = i + 1;
    while (j < size_ && t_[j] != ")") args.push_back(number(j++));
    if (j >= size_) throw ParseError(line_no_, std::string(what) + " missing )");
    i = j + 1;
    return args;
  }

  SourceSpec source(std::size_t i) const;

 private:
  const std::string_view* t_;
  std::size_t size_;
  int line_no_;
};

SourceSpec CardTokens::source(std::size_t i) const {
  SourceSpec spec;
  bool have_wave = false;
  while (i < size_) {
    const std::string_view t = t_[i];
    if (t == "dc") {
      if (i + 1 >= size_) throw ParseError(line_no_, "DC needs a value");
      spec.wave = Waveform::dc(number(i + 1));
      have_wave = true;
      i += 2;
    } else if (t == "sin") {
      ++i;
      const auto args = paren_args(i, "SIN");
      if (args.size() < 3) throw ParseError(line_no_, "SIN needs offset amp freq");
      SineWave sw;
      sw.offset = args[0];
      sw.amplitude = args[1];
      sw.freq_hz = args[2];
      sw.phase_rad = args.size() > 3 ? args[3] * mathx::kPi / 180.0 : 0.0;
      sw.delay_s = args.size() > 4 ? args[4] : 0.0;
      spec.wave = Waveform(sw);
      have_wave = true;
    } else if (t == "pulse") {
      ++i;
      const auto args = paren_args(i, "PULSE");
      if (args.size() < 2) throw ParseError(line_no_, "PULSE needs v1 v2 ...");
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
    } else if (t == "pwl") {
      ++i;
      const auto args = paren_args(i, "PWL");
      if (args.size() < 2 || args.size() % 2 != 0)
        throw ParseError(line_no_, "PWL needs t/v pairs");
      PwlWave pw;
      for (std::size_t k = 0; k + 1 < args.size(); k += 2)
        pw.points.emplace_back(args[k], args[k + 1]);
      spec.wave = Waveform(pw);
      have_wave = true;
    } else if (t == "ac") {
      if (i + 1 >= size_) throw ParseError(line_no_, "AC needs a magnitude");
      spec.ac_mag = number(i + 1);
      i += 2;
      // An optional phase; a non-number is left for the next round.
      double phase_deg = 0.0;
      if (i < size_ && read_number(t_[i], phase_deg)) {
        spec.ac_phase = phase_deg * mathx::kPi / 180.0;
        ++i;
      }
    } else if (!have_wave) {
      spec.wave = Waveform::dc(number(i));  // bare value = DC
      have_wave = true;
      ++i;
    } else {
      ++i;
    }
  }
  return spec;
}

class Elaborator {
 public:
  Elaborator(const Deck& deck, Circuit& ckt) : deck_(deck), ckt_(ckt) {
    compiled_.resize(deck.subckts.size());
  }

  void run() {
    const std::unique_ptr<CompiledScope> main_scope =
        compile(deck_.main_cards.data(), deck_.main_cards.size(), nullptr);
    slots_.assign(main_scope->slot_names.size(), kNoNode);
    emit(*main_scope, 0, 0);
  }

 private:
  /// Compile `count` cards of one scope: the main deck (`sub` null) or a
  /// .subckt body.
  std::unique_ptr<CompiledScope> compile(const Card* cards, std::size_t count,
                                         const Subckt* sub);
  void compile_card(CompiledScope& scope, const CardTokens& t, std::string_view label);
  int slot(CompiledScope& scope, std::string_view token);
  const CompiledScope& subckt_scope(std::uint32_t index);
  void emit(const CompiledScope& scope, std::size_t base, int depth);
  void emit_proto(const CompiledScope& scope, const Proto& p, std::size_t base, int depth);
  NodeId node(const CompiledScope& scope, std::size_t base, int slot);
  const std::string& qualified(std::string_view local);

  const Deck& deck_;
  Circuit& ckt_;
  std::vector<std::unique_ptr<CompiledScope>> compiled_;  // per .subckt, lazily
  // Per-compile maps, reused (compilation never nests).
  ViewIndex slot_index_;
  ViewIndex device_lines_;
  std::vector<NodeId> slots_;  // the slot tables of the scopes being emitted, stacked
  std::string path_;           // hierarchical prefix: "" at top level, "x1.x2" inside
  std::string name_;           // qualified-name buffer
};

std::unique_ptr<CompiledScope> Elaborator::compile(const Card* cards, std::size_t count,
                                                   const Subckt* sub) {
  auto scope = std::make_unique<CompiledScope>();
  slot_index_.clear();
  device_lines_.clear();
  std::string_view label;  // empty for the main deck; cited in duplicate-name errors
  if (sub != nullptr) {
    label = sub->name;
    // Ports own the leading slots. Overwriting an existing entry keeps the
    // historical "last port wins" behavior for a degenerate duplicated
    // port name.
    for (std::uint32_t i = sub->ports_first; i < sub->ports_last; ++i) {
      const int s = static_cast<int>(scope->slot_names.size());
      slot_index_.emplace(deck_.tokens[i], s).value = s;
      scope->slot_names.push_back(deck_.tokens[i]);
    }
  }
  scope->protos.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const CardTokens t(deck_.tokens, cards[c]);
    try {
      compile_card(*scope, t, label);
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      // Value/model errors thrown below card level (number parsing, model
      // table lookups) get the card's line number attached here.
      throw ParseError(t.line_no(),
                       std::string(e.what()) + " (card " + std::string(t[0]) + ")");
    }
  }
  return scope;
}

int Elaborator::slot(CompiledScope& scope, std::string_view token) {
  if (token == "0" || token == "gnd") return kGroundSlot;
  // Locals append in first-reference order.
  const ViewIndex::Slot s =
      slot_index_.emplace(token, static_cast<int>(scope.slot_names.size()));
  if (s.inserted) scope.slot_names.push_back(token);
  return s.value;
}

void Elaborator::compile_card(CompiledScope& scope, const CardTokens& t,
                              std::string_view label) {
  const int line_no = t.line_no();
  const std::string_view nm = t[0];
  // Duplicate device / instance names are rejected per scope at compile
  // time: Circuit::find_device silently returns the first match and the
  // svc/ cache keys assume names are unique, so a colliding card is always
  // a netlist bug. Distinct instance prefixes keep legitimate subcircuit
  // reuse collision-free, and a body-level duplicate is reported once,
  // citing the subckt it lives in.
  const ViewIndex::Slot first = device_lines_.emplace(nm, line_no);
  if (!first.inserted)
    throw ParseError(line_no, "duplicate device name '" + std::string(nm) + "'" +
                                  (label.empty() ? std::string()
                                                 : " in .subckt '" + std::string(label) + "'") +
                                  " (first defined at line " + std::to_string(first.value) +
                                  ")");
  const auto need = [&](std::size_t n) {
    if (t.size() < n) throw ParseError(line_no, "too few fields for " + std::string(nm));
  };
  Proto p;
  p.line_no = line_no;
  p.name = nm;
  const auto slots = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) p.slots[k] = slot(scope, t[k + 1]);
  };
  // Hierarchical device names (as produced by elaboration, or written
  // directly in a generated flat deck) are typed by their leaf segment:
  // "xe0.rsw" is a resistor named xe0.rsw, so a flattened deck round-trips
  // through the parser with elaboration-identical names.
  const std::size_t dot = nm.rfind('.');
  const char type_char =
      (dot == std::string_view::npos || dot + 1 >= nm.size()) ? nm[0] : nm[dot + 1];
  switch (type_char) {
    case 'r':
    case 'c':
    case 'l':
      need(4);
      p.kind = type_char == 'r' ? Kind::kResistor
               : type_char == 'c' ? Kind::kCapacitor
                                  : Kind::kInductor;
      slots(2);
      p.values[0] = t.number(3);
      break;
    case 'k':
      // Kname p1 m1 p2 m2 L1 L2 coupling [resr]: coupled inductor pair.
      need(8);
      p.kind = Kind::kCoupled;
      slots(4);
      p.values = {t.number(5), t.number(6), t.number(7), t.size() > 8 ? t.number(8) : 0.1};
      break;
    case 'v':
    case 'i':
      need(3);
      p.kind = type_char == 'v' ? Kind::kVsource : Kind::kIsource;
      slots(2);
      p.side = static_cast<std::uint32_t>(scope.sources.size());
      scope.sources.push_back(t.source(3));
      break;
    case 'd': {
      need(3);
      p.kind = Kind::kDiode;
      slots(2);
      const DiodeParams defaults;
      p.values[0] = t.keyed(3, "is", defaults.is);
      p.values[1] = t.keyed(3, "n", defaults.n);
      break;
    }
    case 'm': {
      need(6);
      p.kind = Kind::kMosfet;
      const std::string_view model = t[5];
      const double w = t.keyed(6, "w", 1e-6);
      const double l = t.keyed(6, "l", tech65::kLmin);
      p.side = static_cast<std::uint32_t>(scope.mos.size());
      if (model == "nmos") {
        scope.mos.push_back(tech65::nmos(w, l));
      } else if (model == "pmos") {
        scope.mos.push_back(tech65::pmos(w, l));
      } else {
        throw ParseError(line_no, "unknown MOS model: " + std::string(model));
      }
      slots(4);
      break;
    }
    case 'e':
    case 'g':
      need(6);
      p.kind = type_char == 'e' ? Kind::kVcvs : Kind::kVccs;
      slots(4);
      p.values[0] = t.number(5);
      break;
    case 'x': {
      // Xname n1 n2 ... subname: instantiate a subcircuit. The body
      // compiles lazily (memoized) at first emission; the port-count
      // contract is checkable now from the definition header alone.
      need(3);
      const std::string_view subname = t[t.size() - 1];
      const int* index = deck_.subckt_index.find(subname);
      if (index == nullptr)
        throw ParseError(line_no, "unknown subcircuit: " + std::string(subname));
      const Subckt& sub = deck_.subckts[static_cast<std::size_t>(*index)];
      const std::size_t ports = sub.ports_last - sub.ports_first;
      const std::size_t given = t.size() - 2;
      if (given != ports)
        throw ParseError(line_no, "subcircuit " + std::string(subname) + " expects " +
                                      std::to_string(ports) + " nodes, got " +
                                      std::to_string(given));
      p.kind = Kind::kInstance;
      p.side = static_cast<std::uint32_t>(scope.instances.size());
      Instance inst;
      inst.subckt = static_cast<std::uint32_t>(*index);
      inst.args_first = static_cast<std::uint32_t>(scope.args.size());
      for (std::size_t k = 0; k < given; ++k) scope.args.push_back(slot(scope, t[k + 1]));
      inst.args_last = static_cast<std::uint32_t>(scope.args.size());
      scope.instances.push_back(inst);
      break;
    }
    default:
      throw ParseError(line_no, "unknown card: " + std::string(nm));
  }
  scope.protos.push_back(p);
}

const CompiledScope& Elaborator::subckt_scope(std::uint32_t index) {
  std::unique_ptr<CompiledScope>& scope = compiled_[index];
  if (scope == nullptr) {
    const Subckt& sub = deck_.subckts[index];
    scope = compile(deck_.body_cards.data() + sub.cards_first,
                    sub.cards_last - sub.cards_first, &sub);
  }
  return *scope;
}

const std::string& Elaborator::qualified(std::string_view local) {
  name_.assign(path_);
  if (!path_.empty()) name_.push_back('.');
  name_.append(local);
  return name_;
}

NodeId Elaborator::node(const CompiledScope& scope, std::size_t base, int slot) {
  if (slot == kGroundSlot) return kGround;
  NodeId& id = slots_[base + static_cast<std::size_t>(slot)];
  if (id == kNoNode)
    id = ckt_.node(qualified(scope.slot_names[static_cast<std::size_t>(slot)]));
  return id;
}

/// Emit every prototype of a compiled scope whose slot table starts at
/// `base`, framing non-parse errors (device constructor validation) with
/// the card's line number.
void Elaborator::emit(const CompiledScope& scope, std::size_t base, int depth) {
  if (depth > 20) throw ParseError(0, "subcircuit nesting too deep (recursion?)");
  for (const Proto& p : scope.protos) {
    try {
      emit_proto(scope, p, base, depth);
    } catch (const ParseError&) {
      throw;  // already carries its line number
    } catch (const std::exception& e) {
      throw ParseError(p.line_no,
                       std::string(e.what()) + " (card " + std::string(p.name) + ")");
    }
  }
}

void Elaborator::emit_proto(const CompiledScope& scope, const Proto& p, std::size_t base,
                            int depth) {
  // Terminals resolve last to first: the node-creation order every deck's
  // NodeIds have been pinned at.
  std::array<NodeId, 4> n{};
  const auto terminals = [&](int count) {
    for (int k = count - 1; k >= 0; --k) n[k] = node(scope, base, p.slots[k]);
  };
  switch (p.kind) {
    case Kind::kResistor:
      terminals(2);
      ckt_.add<Resistor>(std::string(qualified(p.name)), n[0], n[1], p.values[0]);
      break;
    case Kind::kCapacitor:
      terminals(2);
      ckt_.add<Capacitor>(std::string(qualified(p.name)), n[0], n[1], p.values[0]);
      break;
    case Kind::kInductor:
      terminals(2);
      ckt_.add<Inductor>(std::string(qualified(p.name)), n[0], n[1], p.values[0]);
      break;
    case Kind::kCoupled:
      terminals(4);
      ckt_.add<CoupledInductors>(std::string(qualified(p.name)), n[0], n[1], n[2], n[3],
                                 p.values[0], p.values[1], p.values[2], p.values[3]);
      break;
    case Kind::kVsource: {
      terminals(2);
      const SourceSpec& spec = scope.sources[p.side];
      auto& v =
          ckt_.add<VoltageSource>(std::string(qualified(p.name)), n[0], n[1], spec.wave);
      if (spec.ac_mag != 0.0) v.set_ac(spec.ac_mag, spec.ac_phase);
      break;
    }
    case Kind::kIsource: {
      terminals(2);
      const SourceSpec& spec = scope.sources[p.side];
      auto& src =
          ckt_.add<CurrentSource>(std::string(qualified(p.name)), n[0], n[1], spec.wave);
      if (spec.ac_mag != 0.0) src.set_ac(spec.ac_mag, spec.ac_phase);
      break;
    }
    case Kind::kDiode: {
      terminals(2);
      DiodeParams dp;
      dp.is = p.values[0];
      dp.n = p.values[1];
      ckt_.add<Diode>(std::string(qualified(p.name)), n[0], n[1], dp);
      break;
    }
    case Kind::kMosfet:
      terminals(4);
      ckt_.add<Mosfet>(std::string(qualified(p.name)), n[0], n[1], n[2], n[3],
                       scope.mos[p.side]);
      break;
    case Kind::kVcvs:
      terminals(4);
      ckt_.add<Vcvs>(std::string(qualified(p.name)), n[0], n[1], n[2], n[3], p.values[0]);
      break;
    case Kind::kVccs:
      terminals(4);
      ckt_.add<Vccs>(std::string(qualified(p.name)), n[0], n[1], n[2], n[3], p.values[0]);
      break;
    case Kind::kInstance: {
      const Instance& inst = scope.instances[p.side];
      const CompiledScope& child = subckt_scope(inst.subckt);
      // The child's slot table goes on top of the stack; its ports resolve
      // now, in order, in the caller's scope.
      const std::size_t child_base = slots_.size();
      slots_.resize(child_base + child.slot_names.size(), kNoNode);
      for (std::uint32_t k = inst.args_first; k < inst.args_last; ++k)
        slots_[child_base + (k - inst.args_first)] = node(scope, base, scope.args[k]);
      const std::size_t prefix = path_.size();
      if (!path_.empty()) path_.push_back('.');
      path_.append(p.name);
      emit(child, child_base, depth + 1);
      path_.resize(prefix);
      slots_.resize(child_base);
      break;
    }
  }
}

}  // namespace

Circuit parse_netlist(const std::string& text) {
  Deck deck;
  read_deck(text, deck);
  Circuit ckt;
  Elaborator(deck, ckt).run();
  return ckt;
}

}  // namespace rfmix::spice
