// Tiny --flag=value / --flag value parser for the CLI tools, plus the
// topology-flag parsers the tools share (--mode, --carrier, --cc).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/coupled_cc.h"
#include "experiment/carriers.h"
#include "experiment/run.h"

namespace mpr::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return values_.contains(name); }

  [[nodiscard]] std::string get(const std::string& name, const std::string& def = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  /// Parses sizes like "64k", "4m", "512".
  [[nodiscard]] std::uint64_t get_size(const std::string& name, std::uint64_t def) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    const std::string& v = it->second;
    char* end = nullptr;
    const double base = std::strtod(v.c_str(), &end);
    std::uint64_t mult = 1;
    if (end != nullptr && *end != '\0') {
      switch (*end) {
        case 'k': case 'K': mult = 1024; break;
        case 'm': case 'M': mult = 1024 * 1024; break;
        case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
        default: break;
      }
    }
    return static_cast<std::uint64_t>(base * static_cast<double>(mult));
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// `--mode`: sp-wifi | sp-cell | mp2 | mp4; anything else is mp2.
[[nodiscard]] inline experiment::PathMode parse_mode(const std::string& s) {
  if (s == "sp-wifi") return experiment::PathMode::kSingleWifi;
  if (s == "sp-cell") return experiment::PathMode::kSingleCellular;
  if (s == "mp4") return experiment::PathMode::kMptcp4;
  return experiment::PathMode::kMptcp2;
}

/// `--carrier`: att | verizon (vzw) | sprint; anything else is att.
[[nodiscard]] inline experiment::Carrier parse_carrier(const std::string& s) {
  if (s == "verizon" || s == "vzw") return experiment::Carrier::kVerizon;
  if (s == "sprint") return experiment::Carrier::kSprint;
  return experiment::Carrier::kAtt;
}

/// `--cc`: coupled | olia | reno | vegas; anything else is coupled.
[[nodiscard]] inline core::CcKind parse_cc(const std::string& s) {
  if (s == "olia") return core::CcKind::kOlia;
  if (s == "reno") return core::CcKind::kReno;
  if (s == "vegas") return core::CcKind::kVegas;
  return core::CcKind::kCoupled;
}

}  // namespace mpr::tools
