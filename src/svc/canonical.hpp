// Canonical serialization: the byte string a cache key is hashed over.
//
// Two requests must share a key exactly when the solver is guaranteed to
// produce the same answer for both. The encoding therefore normalizes away
// everything that cannot influence results:
//  * device declaration order — records are sorted by device name;
//  * node declaration order and ground spelling — terminals are encoded as
//    node *names* ("0" for ground, however it was written);
//  * float formatting — values are printed with the shortest decimal that
//    round-trips the exact double (obs::json::number).
// and keeps everything that can: device type tags, terminal order, every
// model parameter (via Device::describe), the analysis kind and its full
// configuration, and the code version (git SHA + format epoch) so a new
// build never serves results computed by an old solver.
//
// The record format is line-oriented `tag|key=value|...` with '%', '|' and
// newline percent-escaped in values. It is append-only: changing the
// meaning of an existing field requires bumping kCanonicalEpoch, which
// invalidates every persisted key at once (see docs/service.md).
#pragma once

#include <string>
#include <string_view>

#include "svc/hash.hpp"

namespace rfmix::spice {
class Circuit;
}

namespace rfmix::svc {

/// Bump to invalidate all previously persisted cache entries when the
/// canonical format or any solver semantics change incompatibly.
/// 2: device records were truncated by one byte in epoch 1.
/// 3: CSC conversion merges every duplicate stamp, which moves the last bits
///    of some solutions (rx_array operating points by ~1e-14 relative).
/// 4: the LPTV noise solve uses the forward LU transposed and two-terminal
///    elements stamp as VCCSs, which moves the last bits of LPTV NF and
///    passive gain (~1e-14 relative); nf_dsb_db honors f_rf_hz.
/// 5: the LPTV block system numbers its unknowns node-major in degree
///    order, which moves the last bits of LPTV gain and NF, PAC and PNOISE
///    (<= 1.7e-14 relative) and of npath_zin (<= 5.3e-13).
inline constexpr int kCanonicalEpoch = 5;

/// Builds the canonical byte string record by record.
class CanonicalWriter {
 public:
  /// Start a record; fields follow, end_record() terminates it.
  void begin_record(std::string_view tag);
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, double value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, int value);
  void end_record();

  /// Append a fully formed record line (used for sorted blocks).
  void raw_record(const std::string& line);

  const std::string& str() const { return buf_; }
  Hash128 hash() const { return hash128(buf_); }

 private:
  std::string buf_;
  bool in_record_ = false;
};

/// One `device|...` record line (no trailing newline) for a described
/// device. Throws std::invalid_argument if the device is opaque
/// (Device::describe returned an empty kind).
std::string canonical_device_record(const spice::Circuit& ckt, std::size_t device_index);

/// Append the whole circuit: a header record plus one record per device,
/// sorted by device name. Throws std::invalid_argument on opaque devices
/// or duplicate device names (both would corrupt cache identity).
void append_canonical_circuit(CanonicalWriter& w, const spice::Circuit& ckt);

/// Append the code-version record (canonical epoch + configure-time git
/// SHA). Every cache key includes this.
void append_version_record(CanonicalWriter& w);

}  // namespace rfmix::svc
