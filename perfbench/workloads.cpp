#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ctime>
#include <optional>
#include <sstream>

#include "analysis/trace_analyzer.h"
#include "app/http.h"
#include "app/ping.h"
#include "experiment/campaign.h"
#include "experiment/carriers.h"
#include "experiment/series.h"
#include "experiment/testbed.h"
#include "net/packet_pool.h"
#include "netem/faults.h"
#include "sim/rng.h"

namespace mpr::perfbench {

using experiment::CampaignAggregates;
using experiment::MatrixEntry;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::RunOutcome;
using experiment::RunResult;
using experiment::Testbed;
using experiment::TestbedConfig;

constexpr std::uint64_t kMiB = 1024 * 1024;

void Digest::add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Counts::add_run(const RunResult& r) {
  ++runs;
  completed += r.completed ? 1 : 0;
  delivered_bytes += r.delivered_bytes;
  events += r.sim_stats.events_executed;
  pool_allocs += r.sim_stats.pool_allocated_packets;
  pool_reuses += r.sim_stats.pool_reused_packets;
  data_packets += r.wifi.data_packets_sent + r.cellular.data_packets_sent;
  rexmits += r.wifi.rexmit_packets + r.cellular.rexmit_packets;
  rtt_samples += r.wifi.rtt_ms.size() + r.cellular.rtt_ms.size();
  reinjections += r.reinjections;
  duplicates += r.duplicate_packets;
  ofo_samples += r.ofo_ms.size();
  ofo_held += static_cast<std::uint64_t>(
      std::count_if(r.ofo_ms.begin(), r.ofo_ms.end(), [](double ms) { return ms > 0.0; }));
  fallbacks += r.sim_stats.fallback_plain_tcp + r.sim_stats.fallback_infinite_mapping;
  join_refusals += r.sim_stats.join_refusals;
  mbox_stripped += r.sim_stats.middlebox_options_stripped;
}

void digest_run(Digest& d, const RunResult& r) {
  d.add(static_cast<std::uint64_t>(r.outcome));
  d.add(r.delivered_bytes);
  d.add_double(r.download_time_s);
  d.add(r.duplicate_packets);
  d.add(r.reinjections);
  d.add(r.penalizations);
  for (const experiment::PathStats* ps : {&r.wifi, &r.cellular}) {
    d.add(ps->bytes_received);
    d.add(ps->data_packets_sent);
    d.add(ps->rexmit_packets);
    d.add(ps->subflows);
    d.add(ps->rtt_ms.size());
    for (const double ms : ps->rtt_ms) d.add_double(ms);
  }
  d.add(r.ofo_ms.size());
  for (const double ms : r.ofo_ms) d.add_double(ms);
  const sim::SimStats& s = r.sim_stats;
  for (const std::uint64_t v :
       {s.events_executed, s.pool_allocated_packets, s.pool_reused_packets, s.fallback_plain_tcp,
        s.fallback_infinite_mapping, s.join_refusals, s.middlebox_options_stripped}) {
    d.add(v);
  }
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Runs one part of a pass and records its host wall and CPU time.
template <typename F>
void timed_part(PassResult& pr, F&& part) {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  part();
  pr.part_wall_s.push_back(seconds_since(t0));
  pr.part_cpu_s.push_back(process_cpu_s() - cpu0);
}

/// Records the "delivered exactly its object size" check for one run.
void check_delivered(PassResult& pr, const std::string& what, const RunResult& r,
                     std::uint64_t object_bytes) {
  if (r.completed && r.delivered_bytes != object_bytes) {
    pr.failures.push_back("delivered_bytes: " + what + " delivered " + fmt_u(r.delivered_bytes) +
                          " of " + fmt_u(object_bytes) + " bytes");
  }
}

/// Builds what run_download builds before its first event (testbed, HTTP
/// endpoints, ping warm-up) and executes that first event. backlog and
/// population reach the simulator through run_matrix / run_campaign, which
/// do not expose their first event, so the set-up time of a pass is
/// measured on this replica of the pass's first run.
void first_event_probe(const TestbedConfig& tb_cfg, const RunConfig& rc, PassResult& pr) {
  Testbed tb{tb_cfg};
  core::MptcpConfig mcfg;
  mcfg.cc = rc.cc;
  const net::SocketAddr server_sock{experiment::kServerAddr1, experiment::kHttpPort};
  const auto size = [&rc](std::uint64_t) { return rc.file_bytes; };
  const bool multipath = rc.mode == PathMode::kMptcp2 || rc.mode == PathMode::kMptcp4;
  std::optional<app::MptcpHttpServer> mp_server;
  std::optional<app::MptcpHttpClient> mp_client;
  std::optional<app::TcpHttpServer> sp_server;
  std::optional<app::TcpHttpClient> sp_client;
  const net::IpAddr first_addr = rc.mode == PathMode::kSingleCellular
                                     ? experiment::kClientCellAddr
                                     : experiment::kClientWifiAddr;
  if (multipath) {
    mp_server.emplace(tb.server(), experiment::kHttpPort, mcfg, std::vector<net::IpAddr>{},
                      size);
    mp_client.emplace(tb.client(), mcfg,
                      std::vector<net::IpAddr>{experiment::kClientWifiAddr,
                                               experiment::kClientCellAddr},
                      server_sock);
  } else {
    sp_server.emplace(tb.server(), experiment::kHttpPort, tcp::TcpConfig{}, size);
    sp_client.emplace(tb.client(), tcp::TcpConfig{}, first_addr, server_sock);
  }
  app::PingAgent pinger{tb.client(), first_addr, experiment::kServerAddr1};
  pinger.ping(2, [] {});
  if (!tb.sim().events().step()) {
    pr.failures.push_back("setup_probe: the first run's set-up scheduled no event");
  }
}

// ---------------------------------------------------------------------------
// backlog: fig11's matrix (MP-2/MP-4 x reno/coupled, AT&T LTE + home WiFi)
// through run_matrix at one job, with objects large enough that slow start
// is amortised.

class Backlog final : public Workload {
 public:
  Backlog(std::uint64_t seed, Size size)
      : seed_{seed}, object_bytes_{size == Size::kFull ? 48 * kMiB : 1 * kMiB} {}

  [[nodiscard]] unsigned jobs() const override { return 1; }

  PassResult pass() override { return run_all(nullptr); }
  PassResult traced_pass(SpanRecorder& rec) override { return run_all(&rec); }

 private:
  /// One single-entry run_matrix call per matrix entry, so each download is
  /// timed on its own. A cell's seed derives only from (label, rep), so this
  /// reproduces the full matrix's results exactly.
  PassResult run_all(SpanRecorder* rec) const {
    PassResult pr;
    const Clock::time_point t0 = Clock::now();
    const Scope workload{rec, "workload", SpanRecorder::kNoParent, 0};
    const std::vector<MatrixEntry> entries = make_entries();
    first_event_probe(entries.front().testbed, entries.front().run, pr);
    pr.setup_s = seconds_since(t0);
    Digest d;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const MatrixEntry& e = entries[i];
      const auto run_id = static_cast<std::uint32_t>(i);
      const Scope run{rec, "run", workload.id(), run_id};
      if (rec != nullptr) {
        const Scope build{rec, "testbed_build", run.id(), run_id};
        const Testbed tb{e.testbed};
      }
      std::vector<RunResult> results;
      timed_part(pr, [&] {
        const Scope download{rec, "run_download", run.id(), run_id};
        results = experiment::run_matrix({e}, 1, seed_, 1).at(e.label);
      });
      if (results.size() != 1) {
        pr.failures.push_back("matrix_shape: no single result for " + e.label);
        continue;
      }
      pr.counts.add_run(results.front());
      d.add_bytes(e.label);
      digest_run(d, results.front());
      check_delivered(pr, e.label, results.front(), e.run.file_bytes);
    }
    pr.digest = d.value();
    pr.wall_s = seconds_since(t0);
    return pr;
  }

  [[nodiscard]] std::vector<MatrixEntry> make_entries() const {
    TestbedConfig tb;
    tb.wifi = netem::wifi_home();
    tb.cellular = experiment::carrier_profile(experiment::Carrier::kAtt);
    std::vector<MatrixEntry> entries;
    for (const PathMode mode : {PathMode::kMptcp2, PathMode::kMptcp4}) {
      for (const core::CcKind cc : {core::CcKind::kReno, core::CcKind::kCoupled}) {
        RunConfig rc;
        rc.mode = mode;
        rc.cc = cc;
        rc.file_bytes = object_bytes_;
        rc.timeout = sim::Duration::seconds(7200);
        entries.push_back({to_string(mode) + "(" + core::to_string(cc) + ")", tb, rc});
      }
    }
    return entries;
  }

  std::uint64_t seed_;
  std::uint64_t object_bytes_;
};

// ---------------------------------------------------------------------------
// population: run_campaign at jobs = nproc over EXPERIMENTS.md's mixed
// population, checkpointing several times per campaign.

constexpr const char* kPopulationSpec =
    "carrier att 0.45\n"
    "carrier verizon 0.35\n"
    "carrier sprint 0.20\n"
    "mode mp2 0.8\n"
    "mode sp-wifi 0.2\n"
    "cc coupled 0.7\n"
    "cc olia 0.3\n"
    "size 64k 0.6\n"
    "size 2m 0.4\n"
    "hotspot-prob 0.15\n"
    "rtt-sigma 0.4\n"
    "loss-scale 0.5 2.0\n"
    "mbox-strip-prob 0.05\n"
    "timeout 600\n"
    "max-sim-time 900\n"
    "max-events 0\n";

class Population final : public Workload {
 public:
  Population(std::uint64_t seed, Size size, unsigned nproc, const std::string& out_dir)
      : users_{size == Size::kFull ? 800u : 16u}, jobs_{nproc} {
    const std::size_t parts = size == Size::kFull ? 4 : 1;
    const sim::SeedSequence seeds{seed};
    for (std::size_t k = 0; k < parts; ++k) {
      Part part;
      part.seed = seeds.seed_for("population#" + std::to_string(k));
      part.ckpt_path = out_dir + "/population-" + std::to_string(k) + ".ckpt";
      std::string error;
      const experiment::CampaignSpec spec = make_spec(part, &error);
      for (std::uint64_t u = 0; u < spec.users; ++u) {
        part.expected_bytes += experiment::sample_user(spec, u).run.file_bytes;
      }
      parts_.push_back(std::move(part));
    }
  }

  ~Population() override {
    for (const Part& part : parts_) std::remove(part.ckpt_path.c_str());
  }
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  [[nodiscard]] unsigned jobs() const override { return jobs_; }

  PassResult pass() override {
    PassResult pr;
    const Clock::time_point t0 = Clock::now();
    const std::vector<experiment::CampaignSpec> specs = setup(pr);
    pr.setup_s = seconds_since(t0);
    Digest d;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      timed_part(pr, [&] { campaign(k, specs[k], pr, d); });
    }
    pr.digest = d.value();
    return pr;
  }

  PassResult traced_pass(SpanRecorder& rec) override {
    PassResult pr;
    const Clock::time_point t0 = Clock::now();
    const std::vector<experiment::CampaignSpec> specs = setup(pr);
    pr.setup_s = seconds_since(t0);
    Digest campaigns;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      // The timed work again, traced only at each campaign's boundary.
      timed_part(pr, [&] {
        const Scope c{&rec, "run_campaign", SpanRecorder::kNoParent,
                      static_cast<std::uint32_t>(k)};
        campaign(k, specs[k], pr, campaigns);
      });
    }
    pr.wall_s = seconds_since(t0);
    const Counts campaign_counts = pr.counts;
    pr.counts = Counts{};
    Digest serial;
    for (std::size_t k = 0; k < specs.size(); ++k) serial_pass(k, specs[k], rec, pr, serial);
    pr.counts.runs += campaign_counts.runs;
    pr.counts.completed += campaign_counts.completed;
    pr.digest = serial.value();
    if (serial.value() != campaigns.value()) {
      pr.failures.push_back("serial_digest: serial per-user pass differs from run_campaign");
    }
    return pr;
  }

  void final_checks(std::vector<std::string>& failures) override {
    for (const Part& part : parts_) {
      std::string error;
      const experiment::CampaignSpec spec = make_spec(part, &error);
      experiment::CheckpointState state;
      if (!experiment::load_checkpoint(part.ckpt_path, spec, &state, &error)) {
        failures.push_back("checkpoint_roundtrip: " + error);
        continue;
      }
      std::string bytes;
      state.agg.serialize(bytes);
      if (state.users_done != users_ || bytes != part.last_aggregates) {
        failures.push_back("checkpoint_roundtrip: final checkpoint of " + part.ckpt_path +
                           " differs from the campaign result");
      }
    }
  }

 private:
  /// One independently seeded campaign of `users_` users. The pass runs
  /// several so each is short enough to be timed on its own while the pass
  /// still samples a large population.
  struct Part {
    std::uint64_t seed{0};
    std::string ckpt_path;
    std::uint64_t expected_bytes{0};
    std::string last_aggregates;  // serialized aggregates of the last campaign
  };

  [[nodiscard]] experiment::CampaignSpec make_spec(const Part& part, std::string* error) const {
    std::istringstream text{std::string{kPopulationSpec} + "users " + fmt_u(users_) +
                            "\nseed " + fmt_u(part.seed) + "\ncheckpoint-every " +
                            fmt_u(checkpoint_every()) + "\nfailure-budget " + fmt_u(users_) +
                            "\n"};
    return experiment::CampaignSpec::parse(text, error);
  }

  [[nodiscard]] std::uint64_t checkpoint_every() const {
    return std::max<std::uint64_t>(1, users_ / 4);
  }

  /// Parses every part's spec and runs the first-event probe on user 0.
  std::vector<experiment::CampaignSpec> setup(PassResult& pr) const {
    std::vector<experiment::CampaignSpec> specs;
    for (const Part& part : parts_) {
      std::string error;
      specs.push_back(make_spec(part, &error));
      if (!error.empty()) pr.failures.push_back("spec_parse: " + error);
    }
    const experiment::SampledUser first = experiment::sample_user(specs.front(), 0);
    first_event_probe(first.testbed, first.run, pr);
    return specs;
  }

  void campaign(std::size_t k, const experiment::CampaignSpec& spec, PassResult& pr, Digest& d) {
    Part& part = parts_[k];
    experiment::CampaignOptions opt;
    opt.checkpoint_path = part.ckpt_path;
    opt.jobs = static_cast<int>(jobs_);
    std::string error;
    const std::optional<experiment::CampaignResult> res =
        experiment::run_campaign(spec, opt, &error);
    if (!res) {
      pr.failures.push_back("run_campaign: " + error);
      return;
    }
    const CampaignAggregates& agg = res->agg;
    pr.counts.runs += res->users_done;
    pr.counts.completed += agg.completed;
    pr.counts.delivered_bytes += agg.delivered_bytes;
    pr.counts.sketch_samples +=
        agg.download_time_s.count() + agg.cellular_fraction.count() + agg.ofo_delay_ms.count();
    if (res->users_done != users_ || agg.users_accounted() != users_) {
      pr.failures.push_back("population_accounting: completed " + fmt_u(agg.completed) +
                            " + timeouts " + fmt_u(agg.timeouts) + " + quarantined " +
                            fmt_u(agg.quarantined()) + " != users " + fmt_u(users_));
    }
    if (agg.completed == users_ && agg.delivered_bytes != part.expected_bytes) {
      pr.failures.push_back("delivered_bytes: population delivered " +
                            fmt_u(agg.delivered_bytes) + " of " + fmt_u(part.expected_bytes) +
                            " bytes");
    }
    part.last_aggregates.clear();
    agg.serialize(part.last_aggregates);
    d.add_bytes(part.last_aggregates);
  }

  /// One serial pass of sample_user + run_download + sketch fold per user,
  /// folding exactly as the campaign engine does, so the aggregates must
  /// match run_campaign's byte for byte.
  void serial_pass(std::size_t k, const experiment::CampaignSpec& spec, SpanRecorder& rec,
                   PassResult& pr, Digest& d) const {
    const Scope workload{&rec, "workload", SpanRecorder::kNoParent, static_cast<std::uint32_t>(k)};
    CampaignAggregates agg;
    for (std::uint64_t u = 0; u < users_; ++u) {
      const auto run_id = static_cast<std::uint32_t>(k * users_ + u);
      const Scope run{&rec, "run", workload.id(), run_id};
      experiment::SampledUser su;
      {
        const Scope s{&rec, "sample_user", run.id(), run_id};
        su = experiment::sample_user(spec, u);
      }
      {
        const Scope s{&rec, "testbed_build", run.id(), run_id};
        const Testbed tb{su.testbed};
      }
      RunResult r;
      {
        const Scope s{&rec, "run_download", run.id(), run_id};
        r = experiment::run_download(su.testbed, su.run);
      }
      pr.counts.add_run(r);
      check_delivered(pr, "user " + fmt_u(u), r, su.run.file_bytes);
      {
        const Scope s{&rec, "sketch_fold", run.id(), run_id};
        pr.counts.sketch_samples += fold(agg, u, su, r);
      }
      if ((u + 1) % checkpoint_every() == 0 || u + 1 == users_) {
        const Scope s{&rec, "checkpoint_write", run.id(), run_id};
        std::string error;
        if (!experiment::write_checkpoint(parts_[k].ckpt_path, spec, {u + 1, agg}, &error)) {
          pr.failures.push_back("checkpoint_write: " + error);
        }
      }
    }
    std::string bytes;
    for (int i = 0; i < 5; ++i) {
      const Scope s{&rec, "sketch_serialize", workload.id(), 0};
      bytes.clear();
      agg.serialize(bytes);
    }
    d.add_bytes(bytes);
  }

  /// The campaign engine's per-user merge (campaign.cpp merge_outcome) for
  /// the outcomes run_download can return. Returns the sketch values added.
  static std::uint64_t fold(CampaignAggregates& agg, std::uint64_t user,
                            const experiment::SampledUser& su, const RunResult& r) {
    agg.delivered_bytes += r.delivered_bytes;
    const char* reason = nullptr;
    switch (r.outcome) {
      case RunOutcome::kCompleted:
        ++agg.completed;
        agg.download_time_s.add(r.download_time_s);
        agg.cellular_fraction.add(r.cellular_fraction());
        for (const double ms : r.ofo_ms) agg.ofo_delay_ms.add(ms);
        return 2 + r.ofo_ms.size();
      case RunOutcome::kTimeout:
        ++agg.timeouts;
        return 0;
      case RunOutcome::kConnectionFailed:
        ++agg.quarantined_connection;
        reason = "connection-failed";
        break;
      case RunOutcome::kWatchdogAbort:
        ++agg.quarantined_watchdog;
        reason = "watchdog";
        break;
    }
    if (agg.quarantine.size() < CampaignAggregates::kMaxRetainedQuarantine) {
      agg.quarantine.push_back({.user = user,
                                .seed = su.testbed.seed,
                                .label = su.label,
                                .reason = reason});
    }
    return 0;
  }

  std::uint64_t users_;  // per campaign
  unsigned jobs_;
  std::vector<Part> parts_;
};

// ---------------------------------------------------------------------------
// impaired: mpr_trace-style capture-and-analyse downloads driven through the
// public API at one job. OLIA over Sprint EV-DO + hotspot WiFi, with a WiFi
// burst-loss episode and then an ifdown/ifup; tcptrace over every capture.

class Impaired final : public Workload {
 public:
  Impaired(std::uint64_t seed, Size size)
      : seed_{seed},
        runs_{size == Size::kFull ? 64u : 1u},
        object_bytes_{size == Size::kFull ? 8 * kMiB : 2 * kMiB} {}

  [[nodiscard]] unsigned jobs() const override { return 1; }

  PassResult pass() override { return run_all(nullptr); }
  PassResult traced_pass(SpanRecorder& rec) override { return run_all(&rec); }

 private:
  PassResult run_all(SpanRecorder* rec) {
    PassResult pr;
    const Clock::time_point t0 = Clock::now();
    const Scope workload{rec, "workload", SpanRecorder::kNoParent, 0};
    netem::FaultSchedule faults;
    faults.burst_loss(1.5, "wifi",
                      {.p_good_to_bad = 0.03, .p_bad_to_good = 0.25, .loss_good = 0.01,
                       .loss_bad = 0.35})
        .loss_clear(4.0, "wifi")
        .iface_down(5.0, "wifi")
        .iface_up(7.0, "wifi");
    const sim::SeedSequence seeds{seed_};
    Digest d;
    for (std::uint32_t i = 0; i < runs_; ++i) {
      const std::uint64_t run_seed = seeds.seed_for("impaired#" + std::to_string(i));
      timed_part(pr, [&] {
        run_one(i, run_seed, faults, rec, workload.id(), i == 0 ? &t0 : nullptr, pr, d);
      });
    }
    pr.digest = d.value();
    pr.wall_s = seconds_since(t0);
    return pr;
  }

  void run_one(std::uint32_t run_id, std::uint64_t run_seed, const netem::FaultSchedule& faults,
               SpanRecorder* rec, std::uint32_t parent, const Clock::time_point* pass_start,
               PassResult& pr, Digest& d) const {
    const Scope run{rec, "run", parent, run_id};
    TestbedConfig cfg;
    cfg.seed = run_seed;
    cfg.wifi = netem::wifi_hotspot();
    cfg.cellular = experiment::carrier_profile(experiment::Carrier::kSprint);
    cfg.capture_trace = true;
    std::optional<Testbed> tb_slot;
    {
      const Scope build{rec, "testbed_build", run.id(), run_id};
      tb_slot.emplace(cfg);
    }
    Testbed& tb = *tb_slot;

    core::MptcpConfig mcfg;
    mcfg.cc = core::CcKind::kOlia;
    const std::uint64_t size = object_bytes_;
    app::MptcpHttpServer server{tb.server(), experiment::kHttpPort, mcfg, {},
                                [size](std::uint64_t) { return size; }};
    app::MptcpHttpClient client{
        tb.client(), mcfg,
        std::vector<net::IpAddr>{experiment::kClientWifiAddr, experiment::kClientCellAddr},
        net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};
    netem::FaultInjector injector{tb.sim()};
    injector.bind("wifi", &tb.wifi_access());
    injector.bind("cell", &tb.cell_access());
    const auto iface_addr = [](const std::string& link) {
      return link == "wifi" ? experiment::kClientWifiAddr : experiment::kClientCellAddr;
    };
    injector.on_iface_down = [&client, iface_addr](const std::string& link) {
      client.connection().remove_local_addr(iface_addr(link));
    };
    injector.on_iface_up = [&client, iface_addr](const std::string& link) {
      client.connection().add_local_addr(iface_addr(link));
    };
    injector.install(faults);

    bool done = false;
    app::FetchResult fetch;
    client.get(size, [&](const app::FetchResult& f) {
      fetch = f;
      done = true;
    });
    {
      const Scope loop{rec, "step_loop", run.id(), run_id};
      sim::Simulation& sim = tb.sim();
      const sim::TimePoint deadline = sim.now() + sim::Duration::seconds(600);
      bool stepped = sim.events().step();
      if (pass_start != nullptr) pr.setup_s = seconds_since(*pass_start);
      while (stepped && !done && sim.now() < deadline) stepped = sim.events().step();
    }

    RunResult r = collect(tb, client, server, done, fetch);
    pr.counts.add_run(r);
    digest_run(d, r);
    check_delivered(pr, "run " + std::to_string(run_id), r, size);
    pr.counts.reorder_peak_bytes =
        std::max(pr.counts.reorder_peak_bytes, client.connection().rx().max_buffered_bytes());
    const analysis::PacketTrace& trace = *tb.trace();
    pr.counts.trace_records += trace.size();
    d.add(trace.size());
    for (const analysis::TraceRecord& tr : trace.records()) {
      pr.counts.trace_drops += tr.kind == net::TraceEvent::Kind::kDrop ? 1 : 0;
    }
    {
      const Scope s{rec, "tcptrace", run.id(), run_id};
      const analysis::TcptraceAnalyzer an{trace};
      for (const analysis::FlowReport& f : an.flows()) {
        d.add(f.data_packets_sent);
        d.add(f.retransmitted_packets);
        d.add(f.bytes_delivered);
        d.add(f.rtt_samples.size());
      }
    }
  }

  /// The RunResult fields run_download would report, read from the public
  /// counters of the connection, its subflows and the packet pool.
  static RunResult collect(Testbed& tb, app::MptcpHttpClient& client,
                           app::MptcpHttpServer& server, bool done,
                           const app::FetchResult& fetch) {
    RunResult r;
    core::MptcpConnection& conn = client.connection();
    r.completed = done;
    r.failed = conn.failed();
    r.outcome = done ? RunOutcome::kCompleted
                     : r.failed ? RunOutcome::kConnectionFailed : RunOutcome::kTimeout;
    r.download_time_s = done ? fetch.download_time().to_seconds() : 0.0;
    r.delivered_bytes = conn.rx().delivered_bytes();
    r.duplicate_packets = conn.rx().duplicate_packets();
    const auto bucket = [&r](net::IpAddr client_addr) -> experiment::PathStats& {
      return client_addr == experiment::kClientWifiAddr ? r.wifi : r.cellular;
    };
    for (core::MptcpSubflow* sf : conn.subflows()) {
      experiment::PathStats& ps = bucket(sf->local().addr);
      ps.bytes_received += sf->metrics().bytes_received;
      ++ps.subflows;
    }
    r.reinjections = conn.reinjected_chunks();
    r.penalizations = conn.penalizations();
    for (core::MptcpConnection* sc : server.connections()) {
      for (core::MptcpSubflow* sf : sc->subflows()) {
        experiment::PathStats& ps = bucket(sf->remote().addr);
        ps.data_packets_sent += sf->metrics().data_packets_sent;
        ps.rexmit_packets += sf->metrics().rexmit_packets;
        for (const sim::Duration rtt : sf->metrics().rtt_samples) {
          ps.rtt_ms.push_back(rtt.to_millis());
        }
      }
      r.reinjections += sc->reinjected_chunks();
      r.penalizations += sc->penalizations();
    }
    for (const core::OfoSample& s : conn.rx().ofo_samples()) {
      r.ofo_ms.push_back(s.delay.to_millis());
    }
    r.sim_stats.events_executed = tb.sim().events().executed();
    if (const net::PacketPool* pool = tb.sim().find_service<net::PacketPool>()) {
      r.sim_stats.pool_allocated_packets = pool->stats().allocs;
      r.sim_stats.pool_reused_packets = pool->stats().reuses;
    }
    const auto add_fallback = [&r](const core::MptcpConnection& c) {
      r.sim_stats.fallback_plain_tcp += c.fallback_counters().plain_tcp ? 1 : 0;
      r.sim_stats.fallback_infinite_mapping += c.fallback_counters().infinite_mapping ? 1 : 0;
      r.sim_stats.join_refusals += c.fallback_counters().join_refusals;
    };
    add_fallback(conn);
    for (core::MptcpConnection* sc : server.connections()) add_fallback(*sc);
    r.sim_stats.fallback_plain_tcp += server.server().tcp_fallback_accepts();
    r.sim_stats.join_refusals += server.server().rejected_joins();
    return r;
  }

  std::uint64_t seed_;
  std::uint32_t runs_;
  std::uint64_t object_bytes_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Size size,
                                        unsigned nproc, const std::string& out_dir) {
  if (name == "backlog") return std::make_unique<Backlog>(seed, size);
  if (name == "population") return std::make_unique<Population>(seed, size, nproc, out_dir);
  if (name == "impaired") return std::make_unique<Impaired>(seed, size);
  return nullptr;
}

}  // namespace mpr::perfbench
