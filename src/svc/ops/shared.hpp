// Internal: schema and payload pieces shared between op registrations
// (the `ac` parameter object and the AC probe payload are used by both the
// ac op and the gen op's piped-ac analysis).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "spice/ac.hpp"
#include "svc/op_registry.hpp"

namespace rfmix::svc {

/// The `ac` parameter-object schema (f_start_hz, f_stop_hz, points,
/// log_scale, probe, probe_ref; strict), bound onto whichever AcSpec `get`
/// selects out of the request being built.
Schema make_ac_object_schema(AcSpec& (*get)(Request&));

/// The bounds every sweep grid shares: points in [2, 4096],
/// 0 < f_start_hz < f_stop_hz, both finite, and for a linear grid a finite
/// (f_stop_hz - f_start_hz) * (points - 1). Throws std::invalid_argument
/// naming the grid as `what` ("ac", "gen ac", "npath_zin sweep", "gen
/// sweep").
void check_freq_grid(double f_start_hz, double f_stop_hz, int points, bool log_scale,
                     const std::string& what);

/// The sweep frequencies of a request's grid: log- or linearly spaced,
/// endpoints included.
std::vector<double> freq_grid(double f_start_hz, double f_stop_hz, int points,
                              bool log_scale);

/// Append `,"<name>":[v0,v1,...]`.
void append_number_array(std::string& out, std::string_view name,
                         const std::vector<double>& values);

/// Append the AC probe payload `,"probe":…,"freqs_hz":[…],"real":[…],
/// "imag":[…]`: the voltage of `probe` relative to `ref` at every swept
/// frequency.
void append_ac_probe(std::string& out, std::string_view probe_name,
                     const spice::AcResult& res, spice::NodeId probe, spice::NodeId ref);

}  // namespace rfmix::svc
