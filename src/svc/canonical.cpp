#include "svc/canonical.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "obs/json_writer.hpp"
#include "obs/report.hpp"
#include "spice/circuit.hpp"

namespace rfmix::svc {

namespace {

/// Values may contain arbitrary bytes (node names, waveform tags); escape
/// the three characters that have structural meaning in the record format.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '|': out += "%7C"; break;
      case '\n': out += "%0A"; break;
      default: out.push_back(c);
    }
  }
}

}  // namespace

void CanonicalWriter::begin_record(std::string_view tag) {
  if (in_record_) end_record();
  append_escaped(buf_, tag);
  in_record_ = true;
}

void CanonicalWriter::field(std::string_view key, std::string_view value) {
  buf_.push_back('|');
  append_escaped(buf_, key);
  buf_.push_back('=');
  append_escaped(buf_, value);
}

void CanonicalWriter::field(std::string_view key, double value) {
  char digits[obs::json::kMaxNumberChars];
  const char* end = obs::json::write_number(digits, value);
  field(key, std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

void CanonicalWriter::field(std::string_view key, std::uint64_t value) {
  field(key, std::string_view(std::to_string(value)));
}

void CanonicalWriter::field(std::string_view key, int value) {
  field(key, std::string_view(std::to_string(value)));
}

void CanonicalWriter::end_record() {
  buf_.push_back('\n');
  in_record_ = false;
}

void CanonicalWriter::raw_record(const std::string& line) {
  if (in_record_) end_record();
  buf_ += line;
  buf_.push_back('\n');
}

std::string canonical_device_record(const spice::Circuit& ckt, std::size_t device_index) {
  const spice::Device& dev = *ckt.devices().at(device_index);
  const spice::DeviceDesc desc = dev.describe();
  if (desc.kind.empty())
    throw std::invalid_argument("device '" + dev.name() +
                                "' is not canonically describable; cannot build "
                                "a content-addressed key for this circuit");
  CanonicalWriter w;
  w.begin_record("device");
  w.field("kind", desc.kind);
  w.field("name", dev.name());
  std::string nodes;
  for (std::size_t i = 0; i < desc.nodes.size(); ++i) {
    if (i > 0) nodes.push_back(',');
    nodes += ckt.node_name(desc.nodes[i]);
  }
  w.field("nodes", nodes);
  for (const auto& [k, v] : desc.text) w.field(k, std::string_view(v));
  for (const auto& [k, v] : desc.params) w.field(k, v);
  w.end_record();
  std::string line = w.str();
  line.pop_back();  // strip the record terminator; raw_record re-adds it
  return line;
}

void append_canonical_circuit(CanonicalWriter& w, const spice::Circuit& ckt) {
  w.begin_record("circuit");
  w.field("devices", std::uint64_t(ckt.devices().size()));
  w.end_record();

  std::vector<std::string> records;
  std::set<std::string> names;
  records.reserve(ckt.devices().size());
  for (std::size_t i = 0; i < ckt.devices().size(); ++i) {
    if (!names.insert(ckt.devices()[i]->name()).second)
      throw std::invalid_argument("duplicate device name '" +
                                  ckt.devices()[i]->name() +
                                  "' makes the circuit identity ambiguous");
    records.push_back(canonical_device_record(ckt, i));
  }
  // Names are unique, and each record embeds its name, so sorting whole
  // records is a deterministic order independent of declaration order.
  std::sort(records.begin(), records.end());
  for (const auto& r : records) w.raw_record(r);
}

void append_version_record(CanonicalWriter& w) {
  w.begin_record("version");
  w.field("epoch", kCanonicalEpoch);
  w.field("git", std::string_view(obs::RunReport::git_sha()));
  w.end_record();
}

}  // namespace rfmix::svc
