#include "experiment/table.h"

#include <charconv>
#include <cstdio>
#include <limits>

namespace mpr::experiment {

void print_banner(const std::string& title) {
  std::printf("\n================ %s ================\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%-17s", c.c_str());
  std::printf("\n");
}

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

std::optional<std::uint64_t> size_from_string(const std::string& s) {
  std::uint64_t mult = 1;
  std::size_t digits = s.size();
  if (!s.empty()) {
    switch (s.back()) {
      case 'k': case 'K': mult = 1024; break;
      case 'm': case 'M': mult = 1024 * 1024; break;
      case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
      default: break;
    }
    if (mult != 1) --digits;
  }
  std::uint64_t v = 0;
  const char* end = s.data() + digits;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > std::numeric_limits<std::uint64_t>::max() / mult) {
    return std::nullopt;
  }
  return v * mult;
}

}  // namespace mpr::experiment
