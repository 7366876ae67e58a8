// Whole-token parsing for the numeric flags and environment values of
// rfmixd and rfmix-router.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>
#include <type_traits>

namespace rfmix::svc {

/// `text` read whole as a T in [lo, hi]; anything else exits 2 with a
/// message naming `what`, the flag or variable the value came from. A
/// prefix parse would take "1e6" as 1 and "5s" as 5.
template <typename T>
T parse_number_or_exit(std::string_view prog, std::string_view what, std::string_view text,
                       T lo, T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  std::cerr << prog << ": " << what << " must be "
            << (std::is_integral_v<T> ? "an integer " : "a number ");
  if (hi == std::numeric_limits<T>::max())
    std::cerr << ">= " << lo;
  else
    std::cerr << "in [" << lo << ", " << hi << "]";
  std::cerr << ", got '" << text << "'\n";
  std::exit(2);
}

}  // namespace rfmix::svc
