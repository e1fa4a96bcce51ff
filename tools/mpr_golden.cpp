// mpr_golden — pins the simulator's outputs across commits.
//
// Runs a small fixed corpus and prints one FNV-1a digest per entry:
//   fig02/<size>/<label>   reduced-reps Figure 2 matrix (4 reps, one per period)
//   fig11/<label>          reduced-reps Figure 11 backlog matrix (2 reps)
//   mpr_run/<mode>/...     mpr_run's default run over cc x sched x mode
//   impaired/<n>           capture + tcptrace MPTCP downloads under WiFi burst
//                          loss (1.5-4 s), ifdown (5 s) and ifup (7 s)
//   middlebox/<n>          a middlebox scenario (corrupting + splitting)
//   campaign<users>        the bytes of a 200- and a 3200-user campaign's
//                          checkpoint (the larger one holds a user whose
//                          result hinges on a same-nanosecond event tie)
//
//   mpr_golden --print                 # digests to stdout
//   mpr_golden --check  <golden.txt>   # exit 1 on any missing/changed entry
//   mpr_golden --update <golden.txt>   # rewrite the file (note it in CHANGES.md)
//
// A RunResult digest covers every field except the host-side counters that
// describe how the simulator got there rather than what it simulated:
// events_executed, the packet-pool counters (allocated, reused, high water,
// bytes) and audit_checks (zero unless built with MPR_AUDIT). A capture is
// digested over the client's flows only.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/trace_analyzer.h"
#include "app/http.h"
#include "experiment/campaign.h"
#include "experiment/carriers.h"
#include "experiment/series.h"
#include "experiment/table.h"
#include "netem/faults.h"
#include "sim/parallel.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

void add_path(Digest& d, const PathStats& p) {
  d.u64(p.bytes_received);
  d.u64(p.data_packets_sent);
  d.u64(p.rexmit_packets);
  d.u64(p.subflows);
  d.u64(p.rtt_ms.size());
  for (const double v : p.rtt_ms) d.f64(v);
}

void add_result(Digest& d, const RunResult& r) {
  d.u64(r.completed ? 1 : 0);
  d.u64(r.failed ? 1 : 0);
  d.u64(static_cast<std::uint64_t>(r.outcome));
  d.f64(r.download_time_s);
  d.u64(r.delivered_bytes);
  d.u64(r.duplicate_packets);
  add_path(d, r.wifi);
  add_path(d, r.cellular);
  d.u64(r.ofo_ms.size());
  for (const double v : r.ofo_ms) d.f64(v);
  d.u64(r.penalizations);
  d.u64(r.reinjections);
  d.u64(r.redundant_chunks);
  d.f64(r.wifi_energy_j);
  d.f64(r.cellular_energy_j);
  const sim::SimStats& s = r.sim_stats;
  for (const std::uint64_t v :
       {s.fallback_plain_tcp, s.fallback_infinite_mapping, s.checksum_failures, s.mp_fail_events,
        s.join_refusals, s.middlebox_options_stripped, s.middlebox_packets_mangled,
        s.streaming_underruns, s.streaming_missed_frames}) {
    d.u64(v);
  }
  d.f64(s.streaming_underrun_s);
}

std::string digest_results(const std::vector<RunResult>& rs) {
  Digest d;
  for (const RunResult& r : rs) add_result(d, r);
  return d.hex();
}

TestbedConfig testbed_for(Carrier carrier) {
  TestbedConfig tb;
  tb.wifi = netem::wifi_home();
  tb.cellular = carrier_profile(carrier);
  return tb;
}

using Golden = std::map<std::string, std::string>;

// Figure 2's matrix (bench/fig02_baseline_download.cpp) at 4 reps: one per
// day period, so every load factor is covered.
void fig02(Golden& out) {
  for (const std::uint64_t size : {64 * kKiB, 512 * kKiB, 2 * kMiB, 16 * kMiB}) {
    std::vector<MatrixEntry> entries;
    RunConfig wifi;
    wifi.mode = PathMode::kSingleWifi;
    wifi.file_bytes = size;
    entries.push_back({"SP-WiFi", testbed_for(Carrier::kAtt), wifi});
    for (const Carrier c : all_carriers()) {
      RunConfig sp;
      sp.mode = PathMode::kSingleCellular;
      sp.file_bytes = size;
      entries.push_back({"SP-" + to_string(c), testbed_for(c), sp});
      RunConfig mp;
      mp.mode = PathMode::kMptcp2;
      mp.file_bytes = size;
      entries.push_back({"MP-" + to_string(c), testbed_for(c), mp});
    }
    const auto results = run_matrix(entries, 4, 20260707);
    for (const MatrixEntry& e : entries) {
      out["fig02/" + fmt_size(size) + "/" + e.label] = digest_results(results.at(e.label));
    }
  }
}

// Figure 11's backlog matrix (bench/fig11_backlog_download.cpp) at 2 reps.
void fig11(Golden& out) {
  std::vector<MatrixEntry> entries;
  for (const PathMode mode : {PathMode::kMptcp2, PathMode::kMptcp4}) {
    for (const core::CcKind cc : {core::CcKind::kReno, core::CcKind::kCoupled}) {
      RunConfig rc;
      rc.mode = mode;
      rc.cc = cc;
      rc.file_bytes = 512 * kMiB;
      rc.timeout = sim::Duration::seconds(7200);
      entries.push_back({to_string(mode) + "(" + core::to_string(cc) + ")",
                         testbed_for(Carrier::kAtt), rc});
    }
  }
  const auto results = run_matrix(entries, 2, 1212);
  for (const MatrixEntry& e : entries) {
    out["fig11/" + e.label] = digest_results(results.at(e.label));
  }
}

// mpr_run's single-run path (seed 1, home WiFi + AT&T) at 1 MiB: every
// cc x scheduler pair on both multipath modes, and both single paths (which
// ignore the MPTCP cc and scheduler).
void mpr_run_matrix(Golden& out) {
  struct Cell {
    std::string name;
    RunConfig rc;
  };
  std::vector<Cell> cells;
  const std::vector<core::CcKind> ccs{core::CcKind::kReno, core::CcKind::kCoupled,
                                      core::CcKind::kOlia, core::CcKind::kVegas};
  const std::vector<core::SchedulerKind> scheds{
      core::SchedulerKind::kMinRtt, core::SchedulerKind::kRoundRobin,
      core::SchedulerKind::kWeighted, core::SchedulerKind::kRedundant};
  for (const PathMode mode : {PathMode::kSingleWifi, PathMode::kSingleCellular,
                              PathMode::kMptcp2, PathMode::kMptcp4}) {
    const bool multipath = mode == PathMode::kMptcp2 || mode == PathMode::kMptcp4;
    for (const core::CcKind cc : ccs) {
      for (const core::SchedulerKind sched : scheds) {
        if (!multipath && (cc != ccs.front() || sched != scheds.front())) continue;
        RunConfig rc;
        rc.mode = mode;
        rc.cc = cc;
        rc.scheduler = sched;
        rc.file_bytes = 1 * kMiB;
        std::string name = "mpr_run/" + to_string(mode);
        if (multipath) name += "/" + core::to_string(cc) + "/" + core::to_string(sched);
        cells.push_back({name, rc});
      }
    }
  }
  std::vector<RunResult> results(cells.size());
  sim::parallel_for_index(cells.size(), sim::effective_jobs(), [&](std::size_t i) {
    results[i] = run_download(testbed_for(Carrier::kAtt), cells[i].rc);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[cells[i].name] = digest_results({results[i]});
  }
}

bool client_flow(const net::FlowKey& f) {
  const auto ours = [](net::IpAddr a) {
    return a == kClientWifiAddr || a == kClientCellAddr || a == kServerAddr1 ||
           a == kServerAddr2;
  };
  return ours(f.src.addr) && ours(f.dst.addr);
}

// One impaired download: OLIA over hotspot WiFi + Sprint EV-DO, captured,
// with the WiFi fault timeline; digests the outcome, the client's capture
// records and tcptrace's per-flow reports.
std::string impaired_run(std::uint64_t seed) {
  netem::FaultSchedule faults;
  faults
      .burst_loss(1.5, "wifi",
                  {.p_good_to_bad = 0.03, .p_bad_to_good = 0.25, .loss_good = 0.01,
                   .loss_bad = 0.35})
      .loss_clear(4.0, "wifi")
      .iface_down(5.0, "wifi")
      .iface_up(7.0, "wifi");
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.wifi = netem::wifi_hotspot();
  cfg.cellular = carrier_profile(Carrier::kSprint);
  cfg.capture_trace = true;
  Testbed tb{cfg};

  core::MptcpConfig mcfg;
  mcfg.cc = core::CcKind::kOlia;
  const std::uint64_t size = 8 * kMiB;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mcfg, {},
                              [size](std::uint64_t) { return size; }};
  app::MptcpHttpClient client{tb.client(), mcfg,
                              std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};
  netem::FaultInjector injector{tb.sim()};
  injector.bind("wifi", &tb.wifi_access());
  injector.bind("cell", &tb.cell_access());
  const auto iface_addr = [](const std::string& link) {
    return link == "wifi" ? kClientWifiAddr : kClientCellAddr;
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
  sim::Simulation& sim = tb.sim();
  const sim::TimePoint deadline = sim.now() + sim::Duration::seconds(600);
  while (!done && sim.now() < deadline && sim.events().step()) {
  }

  Digest d;
  d.u64(done ? 1 : 0);
  d.u64(static_cast<std::uint64_t>(fetch.first_syn_time.ns()));
  d.u64(static_cast<std::uint64_t>(fetch.complete_time.ns()));
  d.u64(client.connection().rx().delivered_bytes());
  d.u64(client.connection().rx().duplicate_packets());
  for (const analysis::TraceRecord& r : tb.trace()->records()) {
    if (!client_flow(r.flow)) continue;
    d.u64(static_cast<std::uint64_t>(r.time.ns()));
    d.u64(static_cast<std::uint64_t>(r.kind));
    d.u64(r.uid);
    d.u64(r.flow.src.addr.value);
    d.u64(r.flow.src.port);
    d.u64(r.flow.dst.addr.value);
    d.u64(r.flow.dst.port);
    d.u64(r.seq);
    d.u64(r.ack);
    d.u64(r.flags);
    d.u64(r.payload);
    d.u64(r.is_retransmit ? 1 : 0);
    const std::optional<net::DssOption> dss = r.dss();
    d.u64(dss ? 1 : 0);
    if (dss) {
      d.u64(dss->dsn);
      d.u64(dss->length);
      d.u64(dss->data_ack);
      d.u64(dss->has_data_ack ? 1 : 0);
      d.u64(dss->data_fin ? 1 : 0);
      d.u64(dss->checksum);
      d.u64(dss->has_checksum ? 1 : 0);
    }
  }
  const analysis::TcptraceAnalyzer an{*tb.trace()};
  for (const analysis::FlowReport& f : an.flows()) {
    if (!client_flow(f.flow)) continue;
    d.u64(f.data_packets_sent);
    d.u64(f.retransmitted_packets);
    d.u64(f.bytes_delivered);
    d.u64(f.rtt_samples.size());
    for (const sim::Duration s : f.rtt_samples) d.u64(static_cast<std::uint64_t>(s.ns()));
  }
  return d.hex();
}

void impaired(Golden& out) {
  const sim::SeedSequence seeds{1};
  std::vector<std::string> digests(4);
  sim::parallel_for_index(digests.size(), sim::effective_jobs(), [&](std::size_t i) {
    digests[i] = impaired_run(seeds.seed_for("impaired#" + std::to_string(i)));
  });
  for (std::size_t i = 0; i < digests.size(); ++i) {
    out["impaired/" + std::to_string(i)] = digests[i];
  }
}

// WiFi corrupts every 4th data segment (DSS checksums on), the cellular
// path splits every 3rd: MP-2 on home WiFi + AT&T, two seeds.
void middlebox(Golden& out) {
  std::string error;
  std::istringstream text{"0.0 wifi mbox corrupt 4\n0.0 cell mbox split 3\n"};
  RunConfig rc;
  rc.mode = PathMode::kMptcp2;
  rc.file_bytes = 1 * kMiB;
  rc.dss_checksum = true;
  rc.faults = netem::FaultSchedule::parse(text, &error);
  if (error.empty()) error = check_scenario(rc.faults);
  if (!error.empty()) std::fprintf(stderr, "mpr_golden: middlebox scenario: %s\n", error.c_str());
  for (std::uint64_t seed : {1, 2}) {
    TestbedConfig tb = testbed_for(Carrier::kAtt);
    tb.seed = seed;
    out["middlebox/" + std::to_string(seed)] = digest_results({run_download(tb, rc)});
  }
}

// EXPERIMENTS.md's mixed population, one checkpoint at the end.
void campaign(Golden& out, std::uint64_t users) {
  const std::string name = "campaign" + std::to_string(users);
  std::istringstream text{
      "users " + std::to_string(users) + "\n"
      "seed 1\n"
      "checkpoint-every " + std::to_string(users) + "\n"
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
      "max-sim-time 900\n"};
  std::string error;
  const CampaignSpec spec = CampaignSpec::parse(text, &error);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mpr_golden_" + std::to_string(static_cast<long long>(::getpid())) + ".ckpt");
  CampaignOptions opt;
  opt.checkpoint_path = path.string();
  const std::optional<CampaignResult> res = run_campaign(spec, opt, &error);
  std::ifstream in{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  std::filesystem::remove(path);
  if (!res || !error.empty()) {
    std::fprintf(stderr, "mpr_golden: %s: %s\n", name.c_str(), error.c_str());
  }
  Digest d;
  d.bytes(bytes);
  out[name] = d.hex();
}

Golden compute() {
  Golden g;
  fig02(g);
  fig11(g);
  mpr_run_matrix(g);
  impaired(g);
  middlebox(g);
  campaign(g, 200);
  campaign(g, 3200);
  return g;
}

bool load(const std::string& path, Golden& g) {
  std::ifstream in{path};
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    g[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return true;
}

void write(std::FILE* f, const Golden& g) {
  std::fprintf(f,
               "# Golden digests of the simulator's outputs; see tools/mpr_golden.cpp.\n"
               "# Change only with `mpr_golden --update <this file>` and a CHANGES.md line.\n");
  for (const auto& [name, digest] : g) std::fprintf(f, "%s %s\n", name.c_str(), digest.c_str());
}

int usage() {
  std::fprintf(stderr, "usage: mpr_golden --print | --check <file> | --update <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "--print") {
    write(stdout, compute());
    return 0;
  }
  if (argc != 3 || (mode != "--check" && mode != "--update")) return usage();
  const std::string path = argv[2];

  if (mode == "--update") {
    const Golden g = compute();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mpr_golden: cannot write %s\n", path.c_str());
      return 1;
    }
    write(f, g);
    std::fclose(f);
    std::printf("mpr_golden: wrote %zu entries to %s\n", g.size(), path.c_str());
    return 0;
  }

  Golden want;
  if (!load(path, want)) {
    std::fprintf(stderr, "mpr_golden: cannot read %s\n", path.c_str());
    return 1;
  }
  const Golden got = compute();
  int bad = 0;
  for (const auto& [name, digest] : want) {
    const auto it = got.find(name);
    if (it == got.end()) {
      std::printf("MISSING  %s (golden %s)\n", name.c_str(), digest.c_str());
      ++bad;
    } else if (it->second != digest) {
      std::printf("CHANGED  %s golden %s now %s\n", name.c_str(), digest.c_str(),
                  it->second.c_str());
      ++bad;
    }
  }
  for (const auto& [name, digest] : got) {
    if (want.find(name) == want.end()) {
      std::printf("NEW      %s %s\n", name.c_str(), digest.c_str());
      ++bad;
    }
  }
  std::printf("mpr_golden: %zu entries, %d differ from %s\n", got.size(), bad, path.c_str());
  return bad == 0 ? 0 : 1;
}
