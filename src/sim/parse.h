// Strict readers for the text inputs: the CLI flags, the campaign spec and
// the fault scenario read every number and enum name through these.
//
// A number is the whole token in decimal, never with a leading '+'. An
// unsigned integer takes no sign and fails on overflow; a real must be
// finite. An enum's spellings live in one Name<E> table beside its
// *_from_string; name_list() renders it for messages.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "sim/time.h"

namespace mpr::sim {

template <typename Int>
[[nodiscard]] std::optional<Int> int_from_string(std::string_view s) {
  Int v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

[[nodiscard]] inline std::optional<double> double_from_string(std::string_view s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Bound on every duration a text input gives, in seconds: far below the
/// point where Duration's nanosecond count overflows.
inline constexpr double kMaxInputSeconds = 1e6;

/// Seconds in [0, kMaxInputSeconds] ("30", "0.5").
[[nodiscard]] inline std::optional<Duration> seconds_from_string(std::string_view s) {
  const std::optional<double> v = double_from_string(s);
  if (!v || *v < 0.0 || *v > kMaxInputSeconds) return std::nullopt;
  return Duration::from_seconds(*v);
}

/// One accepted spelling of an enum value.
template <typename E>
struct Name {
  std::string_view text;
  E value;
};

template <typename E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> from_name(const Name<E> (&names)[N],
                                                   std::string_view s) {
  for (const Name<E>& n : names) {
    if (n.text == s) return n.value;
  }
  return std::nullopt;
}

/// The first spelling of `value` in `names`: its canonical name.
template <typename E, std::size_t N>
[[nodiscard]] std::string name_of(const Name<E> (&names)[N], E value) {
  for (const Name<E>& n : names) {
    if (n.value == value) return std::string{n.text};
  }
  return "?";
}

/// "a | b | c": every spelling in `names`, in table order.
template <typename E, std::size_t N>
[[nodiscard]] std::string name_list(const Name<E> (&names)[N]) {
  std::string out;
  for (const Name<E>& n : names) out.append(out.empty() ? "" : " | ").append(n.text);
  return out;
}

/// Reads a line format (campaign spec, fault scenario): `#` starts a
/// comment, whitespace separates tokens. Hands each non-blank line's tokens
/// to `apply`, which returns what is wrong with the line or "". Returns
/// "line N: <what>" for the first rejected line, or "".
template <typename Apply>
[[nodiscard]] std::string parse_lines(std::istream& in, Apply&& apply) {
  constexpr std::string_view kSpace = " \t\r\n\v\f";
  std::string text;
  std::vector<std::string_view> tokens;
  for (int line_no = 1; std::getline(in, text); ++line_no) {
    const std::string_view line = std::string_view{text}.substr(0, text.find('#'));
    tokens.clear();
    for (std::size_t pos = line.find_first_not_of(kSpace); pos != std::string_view::npos;) {
      const std::size_t end = line.find_first_of(kSpace, pos);
      tokens.push_back(line.substr(pos, end - pos));
      pos = line.find_first_not_of(kSpace, end);
    }
    if (tokens.empty()) continue;
    if (std::string what = apply(tokens); !what.empty()) {
      return "line " + std::to_string(line_no) + ": " + what;
    }
  }
  return {};
}

}  // namespace mpr::sim
