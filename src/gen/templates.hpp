// Parameterized circuit templates: GenSpec -> netlist text.
//
// A GenSpec names a template and its parameters; render_netlist() turns it
// into a deck in either of two equivalent renderings:
//
//  * hierarchical — .subckt definitions + one instance card per element,
//    the form the parser's structural-sharing elaborator compiles once and
//    replays per instance (linear in emitted devices, not deck text);
//  * flat — every elaborated device written out with its hierarchical name
//    ("xe0.rsw0") and hierarchical node names.
//
// The two renderings elaborate to the *same* spice::Circuit: identical
// device names, node names, and declaration order, hence identical
// canonical cache keys and bit-identical solves. Tests pin this property;
// the svc `gen` op depends on it (cache keys are derived from the GenSpec,
// never from the expanded deck).
//
// Per-element mismatch is drawn from mathx::Rng::fork(element) off the
// spec's seed — deterministic, order-independent, and shared between the
// netlist rendering and element_npath_spec() so a generated array and its
// N-path per-element analysis describe the same hardware.
//
// Templates:
//  * rx_array    — M-element mixer-first receiver array (per 2212.03162):
//                  source + R_s per element feeding `paths` switched
//                  RC-ladder baseband branches. Linear; scales to 100k+
//                  devices.
//  * mixer_slice — M transistor-level single-balanced mixer slices
//                  (switching pair at core::quad_geometry sizing): small,
//                  nonlinear, exercises Newton at array scale.
//  * ladder      — binary tree of nested .subckt sections, 4*2^depth - 1
//                  devices from a deck of ~4 lines per level: the
//                  structural-sharing stress case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "npath/zin.hpp"

namespace rfmix::gen {

struct GenSpec {
  std::string template_id = "rx_array";  // rx_array | mixer_slice | ladder
  int elements = 4;       // array elements (rx_array, mixer_slice)
  int paths = 4;          // switched baseband paths per element (rx_array)
  int sections = 6;       // RC-ladder sections per path (rx_array)
  int depth = 4;          // nesting depth (ladder)
  std::uint64_t seed = 1; // mismatch stream seed
  double mismatch = 0.0;  // per-element sigma as a fraction (0 = nominal)
  bool hierarchical = true;
  double r_source = 50.0;   // per-element source resistance [ohm]
  double switch_ron = 10.0; // switch ON resistance [ohm]
  double zbb_r = 1e3;       // per-path baseband resistance [ohm]
  double zbb_c = 0.0;       // per-path baseband capacitance [F]; 0 = none
  double f_lo_hz = 1e9;     // LO frequency for the npath mapping
};

/// Throws std::invalid_argument on unknown template ids, out-of-range or
/// non-finite parameters (the svc layer surfaces these as bad_params).
void validate(const GenSpec& spec);

/// Render the deck text (flat or hierarchical per spec.hierarchical).
std::string render_netlist(const GenSpec& spec);

/// Closed-form count of devices the deck elaborates to (instances fully
/// expanded). Pinned against the parsed circuit in tests.
std::size_t device_count(const GenSpec& spec);

/// A bounded set of interesting node names in the elaborated circuit
/// (element RF ports, slice outputs, ladder output) for analysis payloads.
std::vector<std::string> probe_nodes(const GenSpec& spec);

/// The per-element mismatch draw (fork(element) off spec.seed; fixed draw
/// order). With spec.mismatch == 0 this returns the nominal values.
struct ElementDraw {
  double switch_ron = 0.0;
  double zbb_r = 0.0;
};
ElementDraw element_draw(const GenSpec& spec, int element);

/// Map one rx_array element onto the N-path front-end model (paths ->
/// phases, per-element mismatched ron / zbb_r): the bridge that lets a
/// generated array pipe into the npath_zin analysis. Throws for templates
/// without an N-path interpretation.
npath::NpathSpec element_npath_spec(const GenSpec& spec, int element);

}  // namespace rfmix::gen
