// FNV-1a digest of an elaborated circuit, for the front-end oracles: node
// names in NodeId order; then, per device in declaration order, its name,
// its describe() kind, its terminal NodeIds, its text fields and the bit
// patterns of its parameters; then finalize()'s layout and branch bases.
// Two circuits share a digest only if every node order, name and value bit
// the solver could see is the same.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "spice/circuit.hpp"

namespace rfmix::test {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void count(std::int64_t v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    count(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    bytes(&b, sizeof b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// "0x" and 16 hex digits: digests compare (and print) as text.
inline std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.bytes(s.data(), s.size());
  return h.value();
}

inline std::uint64_t circuit_digest(spice::Circuit& ckt) {
  Fnv1a h;
  h.count(ckt.num_nodes());
  for (spice::NodeId n = 0; n < ckt.num_nodes(); ++n) h.str(ckt.node_name(n));
  h.count(static_cast<std::int64_t>(ckt.devices().size()));
  for (const auto& dev : ckt.devices()) {
    const spice::DeviceDesc d = dev->describe();
    h.str(dev->name());
    h.str(d.kind);
    h.count(static_cast<std::int64_t>(d.nodes.size()));
    for (const spice::NodeId n : d.nodes) h.count(n);
    h.count(static_cast<std::int64_t>(d.text.size()));
    for (const auto& [k, v] : d.text) {
      h.str(k);
      h.str(v);
    }
    h.count(static_cast<std::int64_t>(d.params.size()));
    for (const auto& [k, v] : d.params) {
      h.str(k);
      h.f64(v);
    }
  }
  const spice::MnaLayout layout = ckt.finalize();
  h.count(layout.num_nodes);
  h.count(layout.num_branches);
  for (const auto& dev : ckt.devices()) h.count(dev->branch_base());
  return h.value();
}

}  // namespace rfmix::test
