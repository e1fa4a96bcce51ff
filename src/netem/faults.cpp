#include "netem/faults.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <utility>

#include "sim/parse.h"

namespace mpr::netem {

namespace {

// Schedule-level link aliases: scenario files may say "cellular" for the
// name the harness binds as "cell". Takes the string by reference (GCC 12
// mis-diagnoses the by-value + move form as maybe-uninitialized when
// inlined).
void normalize_link(std::string& link) {
  if (link == "cellular") link = "cell";
}

/// An event of `kind` on `link` (moved from) with first argument `a`.
FaultEvent event_at(double at_s, std::string& link, FaultEvent::Kind kind, double a = 0) {
  return {.at = sim::Duration::from_seconds(at_s), .link = std::move(link), .kind = kind, .a = a};
}

}  // namespace

FaultSchedule& FaultSchedule::add(FaultEvent ev) {
  normalize_link(ev.link);
  events_.push_back(std::move(ev));
  return *this;
}

FaultSchedule& FaultSchedule::outage(double at_s, std::string link) {
  return add(event_at(at_s, link, FaultEvent::Kind::kOutage));
}

FaultSchedule& FaultSchedule::restore(double at_s, std::string link) {
  return add(event_at(at_s, link, FaultEvent::Kind::kRestore));
}

FaultSchedule& FaultSchedule::rate_scale(double at_s, std::string link, double factor) {
  return add(event_at(at_s, link, FaultEvent::Kind::kRateScale, factor));
}

FaultSchedule& FaultSchedule::delay_add(double at_s, std::string link, double extra_ms) {
  return add(event_at(at_s, link, FaultEvent::Kind::kDelayAdd, extra_ms));
}

FaultSchedule& FaultSchedule::burst_loss(double at_s, std::string link,
                                         net::GilbertElliottLoss::Params params) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kBurstLoss,
              .a = params.p_good_to_bad,
              .b = params.p_bad_to_good,
              .c = params.loss_good,
              .d = params.loss_bad});
}

FaultSchedule& FaultSchedule::loss_clear(double at_s, std::string link) {
  return add(event_at(at_s, link, FaultEvent::Kind::kLossClear));
}

FaultSchedule& FaultSchedule::iface_down(double at_s, std::string link) {
  return add(event_at(at_s, link, FaultEvent::Kind::kIfaceDown));
}

FaultSchedule& FaultSchedule::iface_up(double at_s, std::string link) {
  return add(event_at(at_s, link, FaultEvent::Kind::kIfaceUp));
}

FaultSchedule& FaultSchedule::middlebox(double at_s, std::string link, MboxOp op, double a) {
  FaultEvent ev = event_at(at_s, link, FaultEvent::Kind::kMiddlebox, a);
  ev.mbox = op;
  return add(std::move(ev));
}

FaultSchedule& FaultSchedule::scheduler_change(double at_s, std::string name,
                                               std::vector<double> weights) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = "conn",
              .kind = FaultEvent::Kind::kScheduler,
              .arg = std::move(name),
              .weights = std::move(weights)});
}

namespace {

/// Adds the event one tokenized scenario line describes to `out`. Returns
/// what is wrong with the line, or "" when it is well formed.
std::string add_event_line(FaultSchedule& out, const std::vector<std::string_view>& tok) {
  const std::optional<double> at = sim::double_from_string(tok[0]);
  if (!at || *at < 0 || *at > sim::kMaxInputSeconds) {
    return "event time '" + std::string{tok[0]} + "': expected seconds in [0, 1e6]";
  }
  if (tok.size() < 3) return "expected '<time_s> <link> <action>'";
  const std::string link{tok[1]};
  const std::string_view action = tok[2];
  // "mbox" and "sched" take a name before their numeric arguments.
  const bool named = action == "mbox" || action == "sched";
  if (named && tok.size() < 4) return std::string{action} + " needs a name";
  const std::string sub{named ? tok[3] : std::string_view{}};
  std::vector<double> args;
  for (std::size_t i = named ? 4 : 3; i < tok.size(); ++i) {
    const std::optional<double> v = sim::double_from_string(tok[i]);
    if (!v) return "bad number '" + std::string{tok[i]} + "'";
    args.push_back(*v);
  }
  // Exactly `n` arguments, each in [lo, hi].
  const auto args_in = [&](std::size_t n, double lo, double hi) {
    return args.size() == n &&
           std::all_of(args.begin(), args.end(), [&](double v) { return v >= lo && v <= hi; });
  };
  constexpr double kMaxMs = 1e3 * sim::kMaxInputSeconds;

  using Mark = FaultSchedule& (FaultSchedule::*)(double, std::string);
  constexpr std::pair<std::string_view, Mark> kMarks[] = {
      {"outage", &FaultSchedule::outage}, {"blackout", &FaultSchedule::outage},
      {"restore", &FaultSchedule::restore}, {"lossclear", &FaultSchedule::loss_clear},
      {"ifdown", &FaultSchedule::iface_down}, {"ifup", &FaultSchedule::iface_up}};
  for (const auto& [name, mark] : kMarks) {
    if (action != name) continue;
    if (!args.empty()) return std::string{action} + " takes no arguments";
    (out.*mark)(*at, link);
    return {};
  }
  if (action == "rate") {
    if (args.size() != 1 || args[0] <= 0) return "rate needs one factor > 0";
    out.rate_scale(*at, link, args[0]);
  } else if (action == "delay") {
    if (!args_in(1, 0, kMaxMs)) return "delay needs extra ms in [0, 1e9]";
    out.delay_add(*at, link, args[0]);
  } else if (action == "burstloss") {
    if (!args_in(4, 0, 1)) return "burstloss needs p_g2b p_b2g loss_g loss_b in [0, 1]";
    out.burst_loss(*at, link,
                   {.p_good_to_bad = args[0],
                    .p_bad_to_good = args[1],
                    .loss_good = args[2],
                    .loss_bad = args[3]});
  } else if (action == "mbox") {
    const std::optional<MboxOp> op = sim::from_name(kMboxOpNames, sub);
    if (!op) {
      return "unknown mbox subcommand '" + sub + "': expected " + sim::name_list(kMboxOpNames);
    }
    double a = 0;
    if (*op == MboxOp::kCoalesce) {
      if (!args_in(1, 0, kMaxMs)) return "mbox coalesce needs hold ms in [0, 1e9]";
      a = args[0];
    } else if (*op == MboxOp::kNatSeq || *op == MboxOp::kSplit || *op == MboxOp::kCorrupt) {
      // A sequence offset or an every-n count: a 32-bit integer.
      const std::optional<std::uint32_t> n =
          args.size() == 1 ? sim::int_from_string<std::uint32_t>(tok[4]) : std::nullopt;
      if (!n || (*op != MboxOp::kNatSeq && *n < 1)) {
        return *op == MboxOp::kNatSeq ? "mbox nat_seq needs an integer offset >= 0"
                                      : "mbox " + sub + " needs an integer every-n count >= 1";
      }
      a = *n;
    } else if (!args.empty()) {
      return "mbox " + sub + " takes no arguments";
    }
    out.middlebox(*at, link, *op, a);
  } else if (action == "sched") {
    // The name is checked where the scheduler kinds are known
    // (experiment::check_scenario); only the line's shape is checked here.
    if (link != "conn") return "sched is connection-level: use the pseudo-link 'conn'";
    if (std::any_of(args.begin(), args.end(), [](double w) { return w <= 0; })) {
      return "sched weights must be > 0";
    }
    out.scheduler_change(*at, sub, args);
  } else {
    return "unknown action '" + std::string{action} + "'";
  }
  return {};
}

}  // namespace

FaultSchedule FaultSchedule::parse(std::istream& in, std::string* error) {
  FaultSchedule out;
  const std::string what = sim::parse_lines(
      in, [&out](const std::vector<std::string_view>& tok) { return add_event_line(out, tok); });
  if (error != nullptr) *error = what;
  return what.empty() ? out : FaultSchedule{};
}

FaultSchedule FaultSchedule::parse_file(const std::string& path, std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return FaultSchedule{};
  }
  return parse(in, error);
}

void FaultInjector::bind(std::string name, AccessNetwork* access) {
  normalize_link(name);
  links_[std::move(name)] = access;
}

void FaultInjector::install(const FaultSchedule& schedule) {
  const sim::TimePoint origin = sim_.now();
  // Events are kept in a member vector and captured by index: the closure
  // stays pointer-sized, and the vector never shrinks, so indices stay valid
  // even if install() is called more than once.
  installed_.reserve(installed_.size() + schedule.size());
  for (const FaultEvent& ev : schedule.events()) {
    const std::size_t i = installed_.size();
    installed_.push_back(ev);
    if (ev.kind == FaultEvent::Kind::kMiddlebox && ev.at <= sim::Duration{}) {
      // A middlebox present "from the start" must intercept the very first
      // SYN. Endpoints send that SYN synchronously from connect(), before the
      // event queue runs, so a t=0 queue event would attach the box too late.
      apply(installed_[i]);
      continue;
    }
    sim_.at(origin + ev.at, [this, i] { apply(installed_[i]); });
  }
}

void FaultInjector::apply(const FaultEvent& ev) {
  // Connection-level events never resolve to an access network.
  if (ev.kind == FaultEvent::Kind::kScheduler) {
    if (on_scheduler_change) on_scheduler_change(ev.arg, ev.weights);
    ++applied_;
    return;
  }
  const auto it = links_.find(ev.link);
  if (it == links_.end() || it->second == nullptr) {
    ++unmatched_;
    return;
  }
  AccessNetwork& a = *it->second;
  switch (ev.kind) {
    case FaultEvent::Kind::kOutage:
      a.set_down(true);
      break;
    case FaultEvent::Kind::kRestore:
      a.set_down(false);
      break;
    case FaultEvent::Kind::kRateScale:
      a.set_rate_scale(ev.a);
      break;
    case FaultEvent::Kind::kDelayAdd:
      a.set_fault_extra_delay(sim::Duration::from_millis(ev.a));
      break;
    case FaultEvent::Kind::kBurstLoss:
      a.set_loss_override({.p_good_to_bad = ev.a,
                           .p_bad_to_good = ev.b,
                           .loss_good = ev.c,
                           .loss_bad = ev.d});
      break;
    case FaultEvent::Kind::kLossClear:
      a.clear_loss_override();
      break;
    case FaultEvent::Kind::kIfaceDown:
      a.set_down(true);
      if (on_iface_down) on_iface_down(ev.link);
      break;
    case FaultEvent::Kind::kIfaceUp:
      a.set_down(false);
      if (on_iface_up) on_iface_up(ev.link);
      break;
    case FaultEvent::Kind::kMiddlebox: {
      Middlebox& m = a.middlebox();
      switch (ev.mbox) {
        case MboxOp::kStripSyn:
          m.set_strip(Middlebox::Strip::kSyn);
          break;
        case MboxOp::kStripJoin:
          m.set_strip(Middlebox::Strip::kJoin);
          break;
        case MboxOp::kStripAll:
          m.set_strip(Middlebox::Strip::kAll);
          break;
        case MboxOp::kOff:
          m.reset_behaviour();
          break;
        case MboxOp::kNatSeq:
          m.set_nat_seq(static_cast<std::uint64_t>(ev.a));
          break;
        case MboxOp::kSplit:
          m.set_split_every(static_cast<std::uint32_t>(ev.a));
          break;
        case MboxOp::kCorrupt:
          m.set_corrupt_every(static_cast<std::uint32_t>(ev.a));
          break;
        case MboxOp::kCoalesce:
          m.set_coalesce_hold(sim::Duration::from_millis(ev.a));
          break;
      }
      break;
    }
    case FaultEvent::Kind::kScheduler:
      break;  // handled above
  }
  ++applied_;
}

}  // namespace mpr::netem
