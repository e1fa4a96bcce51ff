// Tiny --flag=value / --flag value parser for the CLI tools, plus the
// single-run flags that mpr_run and mpr_trace share. Every value goes
// through a strict parser: a bad one is reported on stderr, naming the flag
// and the values it accepts, and the tool exits 1.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "core/coupled_cc.h"
#include "core/scheduler.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/table.h"
#include "experiment/testbed.h"
#include "netem/faults.h"

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

  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  /// `--name` read through `parse`, a `std::optional<T>(const std::string&)`
  /// parser, or `def` when the flag is absent. A value `parse` rejects is
  /// reported as "expected <accepted>" and `def` is returned.
  template <typename T, typename Parse>
  [[nodiscard]] T parse(const std::string& name, T def, Parse parse_value,
                        const char* accepted) {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    if (const std::optional<T> v = parse_value(it->second)) return *v;
    error(name, std::string("expected ") + accepted);
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

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool ok_{true};
};

/// The whole of `s` as a decimal integer of type Int (no sign for unsigned
/// types, no surrounding text); nullopt otherwise or on overflow.
template <typename Int>
[[nodiscard]] std::optional<Int> int_from_string(const std::string& s) {
  Int v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// The whole of `s` as a finite decimal number; nullopt otherwise.
[[nodiscard]] inline std::optional<double> double_from_string(const std::string& s) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Decimal seconds in [0, 1e6] ("30", "0.5") as a duration.
[[nodiscard]] inline std::optional<sim::Duration> seconds_from_string(const std::string& s) {
  const std::optional<double> v = double_from_string(s);
  if (!v || *v < 0.0 || *v > 1e6) return std::nullopt;
  return sim::Duration::from_seconds(*v);
}

/// Parses `--sched` (name, optionally `weighted:w1,w2,...`) into the config.
/// Returns false on an unknown name or malformed weight list.
[[nodiscard]] inline bool parse_sched(const std::string& spec, experiment::RunConfig& rc) {
  std::string name = spec;
  std::string weight_list;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    weight_list = spec.substr(colon + 1);
  }
  const auto kind = core::scheduler_from_string(name);
  if (!kind) return false;
  rc.scheduler = *kind;
  rc.scheduler_weights.clear();
  if (weight_list.empty()) return true;
  if (*kind != core::SchedulerKind::kWeighted) return false;
  std::size_t pos = 0;
  while (pos <= weight_list.size()) {
    const std::size_t comma = weight_list.find(',', pos);
    const std::string tok =
        weight_list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::optional<double> w = double_from_string(tok);
    if (!w || *w <= 0.0) return false;
    rc.scheduler_weights.push_back(*w);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !rc.scheduler_weights.empty();
}

/// Applies the single-run flags (listed in tools/mpr_run.cpp's header) to
/// `tb` and `rc`; a flag left out keeps the value already there, except
/// --carrier, whose default is att. Every rejected value is reported and
/// clears flags.ok().
inline void parse_run_flags(Flags& flags, experiment::TestbedConfig& tb,
                            experiment::RunConfig& rc) {
  tb.seed = flags.parse("seed", tb.seed, int_from_string<std::uint64_t>,
                        "a non-negative integer");
  if (flags.get_bool("hotspot")) tb.wifi = netem::wifi_hotspot();
  tb.cellular = experiment::carrier_profile(
      flags.parse("carrier", experiment::Carrier::kAtt, experiment::carrier_from_string,
                  "att | verizon | vzw | sprint"));
  tb.cellular.codel_downlink = flags.get_bool("codel");

  rc.mode = flags.parse("mode", rc.mode, experiment::mode_from_string,
                        "sp-wifi | sp-cell | mp2 | mp4");
  rc.cc = flags.parse("cc", rc.cc, core::cc_from_string, "coupled | olia | reno | vegas");
  if (flags.has("sched") && !parse_sched(flags.get("sched"), rc)) {
    flags.error("sched", "expected minrtt | rr | roundrobin | weighted[:w1,w2,...] | redundant");
  }
  rc.file_bytes = flags.parse("size", rc.file_bytes, experiment::size_from_string,
                              "a byte count with an optional k | m | g suffix");
  rc.simultaneous_syns = flags.get_bool("simsyn");
  rc.cellular_backup = flags.get_bool("backup");
  rc.dss_checksum = flags.get_bool("checksum");
  rc.checksum_teardown = flags.get_bool("teardown");
  rc.tcp_fallback = !flags.get_bool("no-fallback");
  rc.max_events = flags.parse("max-events", rc.max_events, int_from_string<std::uint64_t>,
                              "a non-negative integer (0 = no cap)");
  rc.max_sim_time = flags.parse("max-sim-time", rc.max_sim_time, seconds_from_string,
                                "seconds in [0, 1e6] (0 = no cap)");

  if (const std::string scenario = flags.get("scenario"); !scenario.empty()) {
    std::string error;
    rc.faults = netem::FaultSchedule::parse_file(scenario, &error);
    if (!error.empty()) {
      flags.error("scenario", error);
    } else {
      // The testbed binds exactly two links; a typo'd link name would make
      // the schedule a silent no-op, so fail loudly instead.
      for (const std::string& l : rc.faults.unknown_links({"wifi", "cell"})) {
        flags.error("scenario", "unknown link '" + l + "' (bound: wifi, cell)");
      }
    }
  }
}

}  // namespace mpr::tools
