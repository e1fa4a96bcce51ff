// Strict text inputs: the shared number and name readers (sim/parse.h), and
// a token-mutation property test over the campaign spec and fault scenario
// files in tests/data. Each line is mutated one token at a time (sign,
// suffix, nan/inf, overflow, truncation, duplicated key). A mutant must
// either fail with an error naming its line, or parse with every field in
// its documented range and every count spelled by a token of the text (so
// nothing wrapped). Checkpoint loading joins in: a small campaign's
// checkpoint, truncated at each length or with one byte flipped, is refused.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/coupled_cc.h"
#include "core/scheduler.h"
#include "experiment/campaign.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "netem/faults.h"
#include "sim/parse.h"

namespace mpr {
namespace {

using experiment::CampaignSpec;
using netem::FaultEvent;
using netem::FaultSchedule;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in{s};
  while (std::getline(in, cur, sep)) out.push_back(cur);
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) out += (i > 0 ? sep : "") + parts[i];
  return out;
}

// ---------------------------------------------------------------------------
// The shared readers.

TEST(TextInput, IntegersAreWholeDecimalTokens) {
  EXPECT_EQ(sim::int_from_string<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(sim::int_from_string<std::uint64_t>("18446744073709551616"), std::nullopt);
  EXPECT_EQ(sim::int_from_string<std::uint64_t>("-1"), std::nullopt);
  EXPECT_EQ(sim::int_from_string<std::uint64_t>("+8"), std::nullopt);
  EXPECT_EQ(sim::int_from_string<int>("-8"), -8);
  EXPECT_EQ(sim::int_from_string<int>("+8"), std::nullopt);
  for (const char* bad : {"", " 8", "8 ", "8x", "0x10", "1e3", "8.0"}) {
    EXPECT_EQ(sim::int_from_string<std::uint64_t>(bad), std::nullopt) << bad;
  }
}

TEST(TextInput, RealsAreFiniteDecimalTokens) {
  EXPECT_EQ(sim::double_from_string("0.45"), 0.45);
  EXPECT_EQ(sim::double_from_string("-2.5e-3"), -2.5e-3);
  for (const char* bad : {"", "+1", "nan", "inf", "-inf", "1e999", "0.5x", "0x1p3", " 1"}) {
    EXPECT_EQ(sim::double_from_string(bad), std::nullopt) << bad;
  }
  EXPECT_EQ(sim::seconds_from_string("1000000"), sim::Duration::seconds(1000000));
  EXPECT_EQ(sim::seconds_from_string("1000000.5"), std::nullopt);
  EXPECT_EQ(sim::seconds_from_string("-1"), std::nullopt);
}

TEST(TextInput, EveryListedNameParses) {
  const auto check = [](const std::string& list, const auto& parse) {
    for (const std::string& name : split(list, '|')) {
      const std::string trimmed = name.substr(name.find_first_not_of(' '),
                                              name.find_last_not_of(' ') + 1 -
                                                  name.find_first_not_of(' '));
      EXPECT_TRUE(parse(trimmed).has_value()) << trimmed;
    }
  };
  check(sim::name_list(experiment::kCarrierNames), experiment::carrier_from_string);
  check(sim::name_list(experiment::kModeNames), experiment::mode_from_string);
  check(sim::name_list(core::kCcNames), core::cc_from_string);
  check(sim::name_list(core::kSchedulerNames), core::scheduler_from_string);
  EXPECT_EQ(sim::name_list(core::kCcNames), "coupled | olia | reno | vegas");
  EXPECT_EQ(experiment::carrier_from_string("vzw"), experiment::Carrier::kVerizon);
  EXPECT_EQ(experiment::carrier_from_string("ATT"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Token mutations.

/// Every one-token mutation of `tokens`: the mutated line's tokens.
std::vector<std::vector<std::string>> mutations(const std::vector<std::string>& tokens) {
  std::vector<std::vector<std::string>> out;
  const auto with = [&](std::size_t i, const std::string& replacement) {
    std::vector<std::string> m = tokens;
    m[i] = replacement;
    out.push_back(std::move(m));
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    with(i, t[0] == '-' ? t.substr(1) : "-" + t);  // flip the sign
    with(i, "+" + t);
    for (const char* suffix : {"x", "k", "e", ".", "0"}) with(i, t + suffix);
    for (const char* v : {"nan", "inf", "-inf", "1e999", "-1e999", "1e300",
                          "18446744073709551616", "18446744073709551615", "4294967296",
                          "-9223372036854775809", "0", "-0"}) {
      with(i, v);
    }
    for (std::size_t len = 0; len < t.size(); ++len) with(i, t.substr(0, len));  // truncate
    with(i, tokens[0]);                                     // the key in a value's place
    std::vector<std::string> dup = tokens;                  // the token twice
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), t);
    out.push_back(std::move(dup));
  }
  std::vector<std::string> cut = tokens;  // the line without its last token
  cut.pop_back();
  out.push_back(std::move(cut));
  return out;
}

/// Runs every mutation of every line of `text` through `check`, which gets
/// the mutated text and the mutated line's number.
void for_each_mutant(const std::string& text,
                     const std::function<void(const std::string&, int)>& check) {
  const std::vector<std::string> lines = split(text, '\n');
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string code = lines[n].substr(0, lines[n].find('#'));
    std::istringstream in{code};
    const std::vector<std::string> tokens{std::istream_iterator<std::string>{in},
                                          std::istream_iterator<std::string>{}};
    if (tokens.empty()) continue;
    for (const std::vector<std::string>& v : mutations(tokens)) {
      std::vector<std::string> mutant = lines;
      mutant[n] = join(v, " ");
      check(join(mutant, "\n") + "\n", static_cast<int>(n) + 1);
    }
    std::vector<std::string> twice = lines;  // a repeated key
    twice.insert(twice.begin() + static_cast<std::ptrdiff_t>(n), lines[n]);
    check(join(twice, "\n") + "\n", static_cast<int>(n) + 2);
  }
}

/// True when some token of `text` is a number with a '+', which no reader
/// takes (a name such as "+wifi" is left to the harness checks).
bool has_plus_number(const std::string& text) {
  std::istringstream in{text};
  for (std::string tok; in >> tok;) {
    if (tok.size() > 1 && tok[0] == '+' && (std::isdigit(tok[1]) != 0 || tok[1] == '.')) {
      return true;
    }
  }
  return false;
}

/// True when `value` is written in `text` as a whole token (a count that
/// parsed from the text, not one that wrapped).
bool spelled_in(const std::string& text, std::uint64_t value) {
  std::istringstream in{text};
  for (std::string tok; in >> tok;) {
    if (tok == std::to_string(value)) return true;
  }
  return false;
}

bool in_range(double v, double lo, double hi) { return std::isfinite(v) && v >= lo && v <= hi; }

TEST(TextInputProperty, CampaignSpecMutantsFailOnTheirLineOrStayInRange) {
  const std::string text = read_file(MPR_TEST_DATA_DIR "/campaign_smoke.spec");
  const CampaignSpec defaults;
  int mutants = 0;
  for_each_mutant(text, [&](const std::string& mutant, int line) {
    ++mutants;
    std::istringstream in{mutant};
    std::string error;
    CampaignSpec s;
    ASSERT_NO_THROW(s = CampaignSpec::parse(in, &error)) << mutant;
    if (!error.empty()) {
      EXPECT_EQ(error.rfind("line " + std::to_string(line) + ": ", 0), 0u)
          << error << "\n" << mutant;
      return;
    }
    EXPECT_FALSE(has_plus_number(mutant)) << "accepted a '+':\n" << mutant;
    EXPECT_GE(s.users, 1u) << mutant;
    EXPECT_GE(s.checkpoint_every, 1u) << mutant;
    for (const auto& [value, fallback] :
         {std::pair{s.users, defaults.users}, std::pair{s.seed, defaults.seed},
          std::pair{s.checkpoint_every, defaults.checkpoint_every},
          std::pair{s.failure_budget, defaults.failure_budget},
          std::pair{s.max_events, defaults.max_events}}) {
      EXPECT_TRUE(value == fallback || spelled_in(mutant, value))
          << value << " is not in the text:\n" << mutant;
    }
    EXPECT_TRUE(in_range(s.hotspot_prob, 0, 1)) << mutant;
    EXPECT_TRUE(in_range(s.mbox_strip_prob, 0, 1)) << mutant;
    EXPECT_TRUE(in_range(s.rtt_sigma, 0, 2)) << mutant;
    EXPECT_TRUE(in_range(s.loss_scale_lo, 0, s.loss_scale_hi)) << mutant;
    EXPECT_TRUE(std::isfinite(s.loss_scale_hi)) << mutant;
    EXPECT_TRUE(in_range(s.timeout_s, 0, sim::kMaxInputSeconds) && s.timeout_s > 0) << mutant;
    EXPECT_TRUE(in_range(s.max_sim_time_s, 0, sim::kMaxInputSeconds)) << mutant;
    for (const auto& [bytes, weight] : s.sizes) {
      EXPECT_GT(bytes, 0u) << mutant;
      EXPECT_TRUE(std::isfinite(weight) && weight > 0) << mutant;
    }
  });
  EXPECT_GT(mutants, 200);
}

TEST(TextInputProperty, ScenarioMutantsFailOnTheirLineOrStayInRange) {
  const std::string text = read_file(MPR_TEST_DATA_DIR "/every_action.scenario");
  {
    std::istringstream in{text};
    std::string error;
    const FaultSchedule s = FaultSchedule::parse(in, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(s.size(), 20u);
    EXPECT_EQ(experiment::check_scenario(s), "");
  }
  int mutants = 0;
  for_each_mutant(text, [&](const std::string& mutant, int line) {
    ++mutants;
    std::istringstream in{mutant};
    std::string error;
    FaultSchedule s;
    ASSERT_NO_THROW(s = FaultSchedule::parse(in, &error)) << mutant;
    if (!error.empty()) {
      EXPECT_EQ(error.rfind("line " + std::to_string(line) + ": ", 0), 0u)
          << error << "\n" << mutant;
      EXPECT_TRUE(s.empty());
      return;
    }
    EXPECT_FALSE(has_plus_number(mutant)) << "accepted a '+':\n" << mutant;
    for (const FaultEvent& ev : s.events()) {
      EXPECT_GE(ev.at, sim::Duration{}) << mutant;
      EXPECT_LE(ev.at, sim::Duration::from_seconds(sim::kMaxInputSeconds)) << mutant;
      for (const double v : {ev.a, ev.b, ev.c, ev.d}) EXPECT_TRUE(std::isfinite(v)) << mutant;
      switch (ev.kind) {
        case FaultEvent::Kind::kRateScale:
          EXPECT_GT(ev.a, 0) << mutant;
          break;
        case FaultEvent::Kind::kDelayAdd:
          EXPECT_TRUE(in_range(ev.a, 0, 1e9)) << mutant;
          break;
        case FaultEvent::Kind::kBurstLoss:
          for (const double p : {ev.a, ev.b, ev.c, ev.d}) EXPECT_TRUE(in_range(p, 0, 1)) << mutant;
          break;
        case FaultEvent::Kind::kMiddlebox:
          if (ev.mbox == netem::MboxOp::kCoalesce) {
            EXPECT_TRUE(in_range(ev.a, 0, 1e9)) << mutant;
          } else {
            // Offsets and every-n counts are 32-bit integers.
            EXPECT_TRUE(in_range(ev.a, 0, 4294967295.0) && ev.a == std::floor(ev.a)) << mutant;
            if (ev.mbox == netem::MboxOp::kSplit || ev.mbox == netem::MboxOp::kCorrupt) {
              EXPECT_GE(ev.a, 1) << mutant;
            }
          }
          break;
        case FaultEvent::Kind::kScheduler:
          EXPECT_EQ(ev.link, "conn") << mutant;
          EXPECT_FALSE(ev.arg.empty()) << mutant;
          for (const double w : ev.weights) EXPECT_TRUE(std::isfinite(w) && w > 0) << mutant;
          break;
        default:
          break;
      }
    }
  });
  EXPECT_GT(mutants, 500);
}

// ---------------------------------------------------------------------------
// Checkpoint loading under truncation and byte flips.

TEST(TextInputProperty, DamagedCheckpointsAreRefused) {
  CampaignSpec spec;
  spec.users = 4;
  spec.seed = 3;
  spec.checkpoint_every = 4;
  spec.sizes = {{16 * 1024, 1.0}};
  spec.timeout_s = 60.0;
  spec.max_sim_time_s = 120.0;
  const std::string path = testing::TempDir() + "mpr_text_input.ckpt";
  experiment::CampaignOptions opt;
  opt.checkpoint_path = path;
  opt.jobs = 1;
  std::string error;
  ASSERT_TRUE(experiment::run_campaign(spec, opt, &error).has_value()) << error;
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64u);

  const auto refused = [&](const std::string& damaged) {
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    experiment::CheckpointState state;
    state.users_done = 99;
    std::string why;
    bool loaded = true;
    EXPECT_NO_THROW(loaded = experiment::load_checkpoint(path, spec, &state, &why));
    return !loaded && !why.empty() && state.users_done == 99;
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_TRUE(refused(bytes.substr(0, len))) << "truncated to " << len;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    EXPECT_TRUE(refused(flipped)) << "byte " << i << " flipped";
  }
  // The undamaged file still loads.
  EXPECT_FALSE(refused(bytes));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpr
