// Small fixed-width table formatting helpers for the bench binaries, which
// print paper-style rows (mean ± stderr, box summaries, CCDF points).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/stats.h"

namespace mpr::experiment {

/// Box summary "min/q1/median/q3/max" with the given unit suffix.
[[nodiscard]] std::string fmt_box(const analysis::Summary& s, const std::string& unit = "s");

/// "12.3ms" style scalar.
[[nodiscard]] std::string fmt_scalar(double v, const std::string& unit = "", int precision = 2);

/// Human file size ("64KB", "4MB").
[[nodiscard]] std::string fmt_size(std::uint64_t bytes);

/// Size in bytes from "512", "64k", "4m" or "1g" (binary multiples, either
/// case); nullopt for anything else, including signs, fractions and
/// overflow.
[[nodiscard]] std::optional<std::uint64_t> size_from_string(std::string_view s);

}  // namespace mpr::experiment
