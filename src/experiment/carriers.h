// Carrier enumeration mapping to the calibrated access profiles (Table 1).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netem/access.h"
#include "sim/parse.h"

namespace mpr::experiment {

enum class Carrier { kAtt, kVerizon, kSprint };

[[nodiscard]] inline std::string to_string(Carrier c) {
  switch (c) {
    case Carrier::kAtt: return "AT&T";
    case Carrier::kVerizon: return "Verizon";
    case Carrier::kSprint: return "Sprint";
  }
  return "?";
}

/// The carrier names the CLIs and the campaign spec accept.
inline constexpr sim::Name<Carrier> kCarrierNames[] = {
    {"att", Carrier::kAtt}, {"verizon", Carrier::kVerizon}, {"vzw", Carrier::kVerizon},
    {"sprint", Carrier::kSprint}};

[[nodiscard]] inline std::optional<Carrier> carrier_from_string(std::string_view s) {
  return sim::from_name(kCarrierNames, s);
}

[[nodiscard]] inline netem::AccessProfile carrier_profile(Carrier c) {
  switch (c) {
    case Carrier::kAtt: return netem::att_lte();
    case Carrier::kVerizon: return netem::verizon_lte();
    case Carrier::kSprint: return netem::sprint_evdo();
  }
  return netem::att_lte();
}

[[nodiscard]] inline std::vector<Carrier> all_carriers() {
  return {Carrier::kAtt, Carrier::kVerizon, Carrier::kSprint};
}

}  // namespace mpr::experiment
