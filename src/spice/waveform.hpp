// Source waveforms: DC, sine, multi-tone, pulse and piecewise-linear.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "mathx/units.hpp"

namespace rfmix::spice {

struct DcWave {
  double value = 0.0;
};

struct SineWave {
  double offset = 0.0;
  double amplitude = 0.0;
  double freq_hz = 0.0;
  double phase_rad = 0.0;
  double delay_s = 0.0;
};

/// Sum of sines on a common DC offset — the natural RF two-tone stimulus.
struct MultiToneWave {
  struct Tone {
    double amplitude = 0.0;
    double freq_hz = 0.0;
    double phase_rad = 0.0;
  };
  double offset = 0.0;
  std::vector<Tone> tones;
};

struct PulseWave {
  double v1 = 0.0;       // initial value
  double v2 = 0.0;       // pulsed value
  double delay_s = 0.0;
  double rise_s = 1e-12;
  double fall_s = 1e-12;
  double width_s = 0.0;  // time at v2
  double period_s = 0.0; // 0 = single pulse
};

struct PwlWave {
  std::vector<std::pair<double, double>> points;  // (time, value), increasing time
};

class Waveform {
 public:
  Waveform() : w_(DcWave{}) {}
  Waveform(DcWave w) : w_(w) {}                       // NOLINT implicit by design
  Waveform(SineWave w) : w_(w) {}                     // NOLINT
  Waveform(MultiToneWave w) : w_(std::move(w)) {}     // NOLINT
  Waveform(PulseWave w) : w_(w) {}                    // NOLINT
  Waveform(PwlWave w) : w_(std::move(w)) {}           // NOLINT

  static Waveform dc(double v) { return Waveform(DcWave{v}); }
  static Waveform sine(double amplitude, double freq_hz, double offset = 0.0,
                       double phase_rad = 0.0, double delay_s = 0.0) {
    return Waveform(SineWave{offset, amplitude, freq_hz, phase_rad, delay_s});
  }

  double value(double t) const {
    return std::visit([t](const auto& w) { return eval(w, t); }, w_);
  }

  /// Value used by the DC operating point (time-zero / average level).
  double dc_value() const {
    return std::visit([](const auto& w) { return dc_of(w); }, w_);
  }

  /// Append a canonical encoding (type tag + every parameter that shapes
  /// value()/dc_value()) for content-addressed hashing. Field order is part
  /// of the persisted cache-key format — append only.
  void describe(std::vector<std::pair<std::string, std::string>>& text,
                std::vector<std::pair<std::string, double>>& params) const {
    std::visit([&](const auto& w) { describe_of(w, text, params); }, w_);
  }

 private:
  using TextFields = std::vector<std::pair<std::string, std::string>>;
  using NumFields = std::vector<std::pair<std::string, double>>;

  /// Key prefix "<letter><i>." of the i-th tone or point. Appended piece
  /// by piece: GCC 12 misreports `"t" + std::to_string(i)` under -Wrestrict.
  static std::string indexed_tag(char letter, std::size_t i) {
    std::string tag(1, letter);
    tag += std::to_string(i);
    tag += '.';
    return tag;
  }

  static void describe_of(const DcWave& w, TextFields& text, NumFields& params) {
    text.emplace_back("wave", "dc");
    params.emplace_back("v", w.value);
  }
  static void describe_of(const SineWave& w, TextFields& text, NumFields& params) {
    text.emplace_back("wave", "sine");
    params.emplace_back("off", w.offset);
    params.emplace_back("amp", w.amplitude);
    params.emplace_back("freq", w.freq_hz);
    params.emplace_back("phase", w.phase_rad);
    params.emplace_back("delay", w.delay_s);
  }
  static void describe_of(const MultiToneWave& w, TextFields& text, NumFields& params) {
    text.emplace_back("wave", "multitone");
    params.emplace_back("off", w.offset);
    for (std::size_t i = 0; i < w.tones.size(); ++i) {
      const std::string tag = indexed_tag('t', i);
      params.emplace_back(tag + "amp", w.tones[i].amplitude);
      params.emplace_back(tag + "freq", w.tones[i].freq_hz);
      params.emplace_back(tag + "phase", w.tones[i].phase_rad);
    }
  }
  static void describe_of(const PulseWave& w, TextFields& text, NumFields& params) {
    text.emplace_back("wave", "pulse");
    params.emplace_back("v1", w.v1);
    params.emplace_back("v2", w.v2);
    params.emplace_back("delay", w.delay_s);
    params.emplace_back("rise", w.rise_s);
    params.emplace_back("fall", w.fall_s);
    params.emplace_back("width", w.width_s);
    params.emplace_back("period", w.period_s);
  }
  static void describe_of(const PwlWave& w, TextFields& text, NumFields& params) {
    text.emplace_back("wave", "pwl");
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const std::string tag = indexed_tag('p', i);
      params.emplace_back(tag + "t", w.points[i].first);
      params.emplace_back(tag + "v", w.points[i].second);
    }
  }
  static double eval(const DcWave& w, double) { return w.value; }

  static double eval(const SineWave& w, double t) {
    if (t < w.delay_s) return w.offset + w.amplitude * std::sin(w.phase_rad);
    return w.offset +
           w.amplitude *
               std::sin(mathx::kTwoPi * w.freq_hz * (t - w.delay_s) + w.phase_rad);
  }

  static double eval(const MultiToneWave& w, double t) {
    double v = w.offset;
    for (const auto& tone : w.tones)
      v += tone.amplitude * std::sin(mathx::kTwoPi * tone.freq_hz * t + tone.phase_rad);
    return v;
  }

  static double eval(const PulseWave& w, double t) {
    if (t < w.delay_s) return w.v1;
    double tl = t - w.delay_s;
    if (w.period_s > 0.0) tl = std::fmod(tl, w.period_s);
    if (tl < w.rise_s) return w.v1 + (w.v2 - w.v1) * tl / w.rise_s;
    tl -= w.rise_s;
    if (tl < w.width_s) return w.v2;
    tl -= w.width_s;
    if (tl < w.fall_s) return w.v2 + (w.v1 - w.v2) * tl / w.fall_s;
    return w.v1;
  }

  static double eval(const PwlWave& w, double t) {
    if (w.points.empty()) return 0.0;
    if (t <= w.points.front().first) return w.points.front().second;
    if (t >= w.points.back().first) return w.points.back().second;
    for (std::size_t i = 1; i < w.points.size(); ++i) {
      if (t <= w.points[i].first) {
        const auto& [t0, v0] = w.points[i - 1];
        const auto& [t1, v1] = w.points[i];
        if (t1 == t0) return v1;
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
      }
    }
    return w.points.back().second;
  }

  static double dc_of(const DcWave& w) { return w.value; }
  static double dc_of(const SineWave& w) { return w.offset; }
  static double dc_of(const MultiToneWave& w) { return w.offset; }
  static double dc_of(const PulseWave& w) { return w.v1; }
  static double dc_of(const PwlWave& w) {
    return w.points.empty() ? 0.0 : w.points.front().second;
  }

  std::variant<DcWave, SineWave, MultiToneWave, PulseWave, PwlWave> w_;
};

}  // namespace rfmix::spice
