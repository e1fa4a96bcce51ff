#include "experiment/table.h"

#include <cstdio>
#include <limits>

#include "sim/parse.h"

namespace mpr::experiment {

std::string fmt_box(const analysis::Summary& s, const std::string& unit) {
  if (s.n == 0) return "-";  // empty summaries are all-NaN by contract
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.2f/%.2f/%.2f/%.2f/%.2f%s", s.min, s.q1, s.median, s.q3,
                s.max, unit.c_str());
  return buf;
}

std::string fmt_scalar(double v, const std::string& unit, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%s", precision, v, unit.c_str());
  return buf;
}

std::string fmt_size(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 && bytes % (1024ull * 1024) == 0) {
    std::snprintf(buf, sizeof buf, "%lluMB", static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%lluKB", static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::optional<std::uint64_t> size_from_string(std::string_view s) {
  std::uint64_t mult = 1;
  if (!s.empty()) {
    switch (s.back()) {
      case 'k': case 'K': mult = 1024; break;
      case 'm': case 'M': mult = 1024 * 1024; break;
      case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
      default: break;
    }
    if (mult != 1) s.remove_suffix(1);
  }
  const std::optional<std::uint64_t> v = sim::int_from_string<std::uint64_t>(s);
  if (!v || *v > std::numeric_limits<std::uint64_t>::max() / mult) return std::nullopt;
  return *v * mult;
}

}  // namespace mpr::experiment
