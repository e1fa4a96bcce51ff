// mpr_trace — run one download with packet capture and dump the trace, as
// tcpdump-style text or as a .pcap file openable in Wireshark.
//
//   mpr_trace --mode mp2 --size 512k                 # text to stdout
//   mpr_trace --size 1m --pcap out.pcap              # deliveries as pcap
//   mpr_trace --pcap out.pcap --capture send         # sender-side capture
//
// Accepts every single-run flag of mpr_run (--mode, --carrier, --cc,
// --sched, --size, --seed, --scenario, ...; see tools/mpr_run.cpp), parsed
// by the same code, and runs the same measurement: run_download on a
// capturing testbed. So the trace holds the ping warm-up too, and
// --mode sp-wifi / sp-cell trace plain TCP. --size defaults to 512k here.
//
//   --pcap     write the capture to this .pcap file instead of text
//   --capture  deliver | send: which side's records go to the .pcap
//              (default deliver)
#include <cstdio>
#include <string>
#include <string_view>

#include "analysis/pcap.h"
#include "cli_flags.h"
#include "experiment/run.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

int main(int argc, char** argv) {
  tools::Flags flags{argc, argv};
  TestbedConfig tb_cfg;
  RunConfig rc;
  tools::parse_run_flags(flags, tb_cfg, rc);
  constexpr sim::Name<net::TraceEvent::Kind> kCaptureNames[] = {
      {"deliver", net::TraceEvent::Kind::kDeliver}, {"send", net::TraceEvent::Kind::kSend}};
  const net::TraceEvent::Kind capture = flags.parse(
      "capture", net::TraceEvent::Kind::kDeliver,
      [&](std::string_view s) { return sim::from_name(kCaptureNames, s); },
      sim::name_list(kCaptureNames));
  if (!flags.ok()) return 1;

  tb_cfg.capture_trace = true;
  Testbed tb{tb_cfg};
  const RunResult result = run_download(tb, rc);
  std::fprintf(stderr, "download %s; %zu trace records\n", to_string(result.outcome).c_str(),
               tb.trace()->size());

  if (flags.has("pcap")) {
    analysis::PcapWriteOptions opts;
    opts.kind = capture;
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
                r.dss() ? " dss" : "", r.is_retransmit ? " rexmit" : "");
  }
  return 0;
}
