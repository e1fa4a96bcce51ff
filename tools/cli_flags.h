// Tiny --flag=value / --flag value parser for the CLI tools, plus the
// single-run flags that mpr_run and mpr_trace share. Every value goes
// through a strict parser: a bad one is reported on stderr, naming the flag
// and the values it accepts, and the tool exits 1.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/coupled_cc.h"
#include "core/scheduler.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/table.h"
#include "experiment/testbed.h"
#include "netem/faults.h"
#include "sim/parse.h"

namespace mpr::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    if (argc > 0) {
      program_ = argv[0];
      program_.erase(0, program_.find_last_of('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {  // every argument is a flag or a flag's value
        std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(), arg.c_str());
        ok_ = false;
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

  /// A boolean flag: absent = `def`; bare, `true` or `1` = true; `false`
  /// or `0` = false. Any other value is reported and reads as `def`.
  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    if (it->second == "true" || it->second == "1") return true;
    if (it->second == "false" || it->second == "0") return false;
    error(name, "expected true | false | 1 | 0, or the bare flag");
    return def;
  }

  /// `--name` read through `parse`, a `std::optional<T>(std::string_view)`
  /// parser, or `def` when the flag is absent. A value `parse` rejects is
  /// reported as "expected <accepted>" and `def` is returned.
  template <typename T, typename Parse>
  [[nodiscard]] T parse(const std::string& name, T def, Parse parse_value,
                        const std::string& accepted) {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    if (const std::optional<T> v = parse_value(it->second)) return *v;
    error(name, "expected " + accepted);
    return def;
  }

  /// Prints "<program>: --<name> <value>: <what>" to stderr and clears ok().
  void error(const std::string& name, const std::string& what) {
    std::fprintf(stderr, "%s: --%s %s: %s\n", program_.c_str(), name.c_str(), get(name).c_str(),
                 what.c_str());
    ok_ = false;
  }

  /// False once any flag value was rejected.
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  bool ok_{true};
};

/// Parses `--sched` (a scheduler name, optionally `weighted:w1,w2,...`)
/// into the config. Returns false on an unknown name or a bad share list.
[[nodiscard]] inline bool parse_sched(std::string_view spec, experiment::RunConfig& rc) {
  const std::size_t colon = spec.find(':');
  const auto kind = core::scheduler_from_string(spec.substr(0, colon));
  if (!kind) return false;
  rc.scheduler = *kind;
  rc.scheduler_weights.clear();
  if (colon == std::string_view::npos) return true;
  if (*kind != core::SchedulerKind::kWeighted) return false;
  for (std::string_view rest = spec.substr(colon + 1);;) {
    const std::size_t comma = rest.find(',');
    const std::optional<double> w = sim::double_from_string(rest.substr(0, comma));
    if (!w || *w <= 0.0) return false;
    rc.scheduler_weights.push_back(*w);
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 1);
  }
}

/// Applies the single-run flags (listed in tools/mpr_run.cpp's header) to
/// `tb` and `rc`; a flag left out keeps the value already there, except
/// --carrier, whose default is att. Every rejected value is reported and
/// clears flags.ok().
inline void parse_run_flags(Flags& flags, experiment::TestbedConfig& tb,
                            experiment::RunConfig& rc) {
  tb.seed = flags.parse("seed", tb.seed, sim::int_from_string<std::uint64_t>,
                        "a non-negative integer");
  if (flags.get_bool("hotspot")) tb.wifi = netem::wifi_hotspot();
  tb.cellular = experiment::carrier_profile(flags.parse(
      "carrier", experiment::Carrier::kAtt, experiment::carrier_from_string,
      sim::name_list(experiment::kCarrierNames)));
  tb.cellular.codel_downlink = flags.get_bool("codel");

  rc.mode = flags.parse("mode", rc.mode, experiment::mode_from_string,
                        sim::name_list(experiment::kModeNames));
  rc.cc = flags.parse("cc", rc.cc, core::cc_from_string, sim::name_list(core::kCcNames));
  if (flags.has("sched") && !parse_sched(flags.get("sched"), rc)) {
    flags.error("sched", "expected " + sim::name_list(core::kSchedulerNames) +
                             ", with weighted:w1,w2,... setting shares > 0");
  }
  rc.file_bytes = flags.parse("size", rc.file_bytes, experiment::size_from_string,
                              "a byte count with an optional k | m | g suffix");
  rc.simultaneous_syns = flags.get_bool("simsyn");
  rc.cellular_backup = flags.get_bool("backup");
  rc.dss_checksum = flags.get_bool("checksum");
  rc.checksum_teardown = flags.get_bool("teardown");
  rc.tcp_fallback = !flags.get_bool("no-fallback");
  rc.max_events = flags.parse("max-events", rc.max_events, sim::int_from_string<std::uint64_t>,
                              "a non-negative integer (0 = no cap)");
  rc.max_sim_time = flags.parse("max-sim-time", rc.max_sim_time, sim::seconds_from_string,
                                "seconds in [0, 1e6] (0 = no cap)");

  if (const std::string scenario = flags.get("scenario"); !scenario.empty()) {
    std::string error;
    rc.faults = netem::FaultSchedule::parse_file(scenario, &error);
    if (error.empty()) error = experiment::check_scenario(rc.faults);
    if (!error.empty()) flags.error("scenario", error);
  }
}

}  // namespace mpr::tools
