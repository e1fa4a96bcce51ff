// mpr_trace — run one download with packet capture and dump the trace, as
// tcpdump-style text or as a .pcap file openable in Wireshark.
//
//   mpr_trace --mode mp2 --size 512k                 # text to stdout
//   mpr_trace --size 1m --pcap out.pcap              # deliveries as pcap
//   mpr_trace --pcap out.pcap --capture send         # sender-side capture
//
// Shares mpr_run's topology flags (--mode/--carrier/--cc/--size/--seed) and
// their parsers (cli_flags.h). The capture needs the testbed's trace, so the
// download loop is its own and covers --mode sp-wifi and mp2 only;
// --mode sp-cell and mp4 exit 1.
#include <cstdio>
#include <string>

#include "analysis/pcap.h"
#include "app/http.h"
#include "cli_flags.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

int main(int argc, char** argv) {
  const tools::Flags flags{argc, argv};

  const std::string mode_flag = flags.get("mode", "mp2");
  const PathMode mode = tools::parse_mode(mode_flag);
  if (mode != PathMode::kSingleWifi && mode != PathMode::kMptcp2) {
    std::fprintf(stderr, "mpr_trace: --mode %s is not supported; use sp-wifi or mp2\n",
                 mode_flag.c_str());
    return 1;
  }

  TestbedConfig tb_cfg;
  tb_cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  tb_cfg.capture_trace = true;
  tb_cfg.cellular = carrier_profile(tools::parse_carrier(flags.get("carrier", "att")));
  Testbed tb{tb_cfg};

  core::MptcpConfig cfg;
  cfg.cc = tools::parse_cc(flags.get("cc", "coupled"));
  const std::uint64_t size = flags.get_size("size", 512 << 10);

  app::MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                              [size](std::uint64_t) { return size; }};
  std::vector<net::IpAddr> addrs{kClientWifiAddr};
  if (mode == PathMode::kMptcp2) addrs.push_back(kClientCellAddr);
  app::MptcpHttpClient client{tb.client(), cfg, addrs,
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  bool done = false;
  client.get(size, [&](const app::FetchResult&) { done = true; });
  const sim::TimePoint deadline = tb.sim().now() + sim::Duration::seconds(600);
  while (!done && tb.sim().now() < deadline && tb.sim().events().step()) {
  }
  std::fprintf(stderr, "download %s; %zu trace records\n", done ? "completed" : "TIMED OUT",
               tb.trace()->size());

  if (flags.has("pcap")) {
    analysis::PcapWriteOptions opts;
    if (flags.get("capture", "deliver") == "send") {
      opts.kind = net::TraceEvent::Kind::kSend;
    }
    const std::string path = flags.get("pcap");
    if (!analysis::write_pcap(*tb.trace(), path, opts)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
  }

  // tcpdump-style text dump.
  for (const analysis::TraceRecord& r : tb.trace()->records()) {
    const char* kind = r.kind == net::TraceEvent::Kind::kSend      ? "snd"
                       : r.kind == net::TraceEvent::Kind::kDeliver ? "rcv"
                                                                   : "drp";
    std::string fl;
    if ((r.flags & net::kFlagSyn) != 0) fl += 'S';
    if ((r.flags & net::kFlagFin) != 0) fl += 'F';
    if ((r.flags & net::kFlagAck) != 0) fl += '.';
    std::printf("%12.6f %s %s:%u > %s:%u [%s] seq %llu ack %llu len %u%s%s\n",
                r.time.to_seconds(), kind, net::to_string(r.flow.src.addr).c_str(),
                r.flow.src.port, net::to_string(r.flow.dst.addr).c_str(), r.flow.dst.port,
                fl.c_str(), static_cast<unsigned long long>(r.seq),
                static_cast<unsigned long long>(r.ack), r.payload,
                r.dss ? " dss" : "", r.is_retransmit ? " rexmit" : "");
  }
  return 0;
}
