// Analysis-layer tests: statistics, CCDFs, packet traces and the
// tcptrace-style flow analyzer (cross-validated against endpoint metrics).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/pcap.h"
#include "analysis/stats.h"
#include "analysis/trace.h"
#include "analysis/trace_analyzer.h"
#include "net/host.h"
#include "net/link.h"
#include "netem/background.h"
#include "tcp/endpoint.h"
#include "tcp/listener.h"

namespace mpr::analysis {
namespace {

TEST(Stats, EmptySampleIsAllNaN) {
  // Documented contract: an empty sample yields n == 0 and NaN everywhere —
  // a fabricated 0.0 would be indistinguishable from a real measurement.
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.stddev));
  EXPECT_TRUE(std::isnan(s.stderr_mean));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.q1));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.q3));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST(Stats, QuantileOfEmptySampleIsNaN) {
  EXPECT_TRUE(std::isnan(quantile_sorted({}, 0.0)));
  EXPECT_TRUE(std::isnan(quantile_sorted({}, 0.5)));
  EXPECT_TRUE(std::isnan(quantile_sorted({}, 1.0)));
}

TEST(Stats, SingleValue) {
  const Summary s = summarize({5.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
}

TEST(Stats, KnownSample) {
  // 1..5: mean 3, sd sqrt(2.5), median 3, q1 2, q3 4.
  const Summary s = summarize({5.0, 3.0, 1.0, 4.0, 2.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.stderr_mean, std::sqrt(2.5) / std::sqrt(5.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, ToMillisConverts) {
  const auto ms = to_millis({sim::Duration::millis(5), sim::Duration::micros(1500)});
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_DOUBLE_EQ(ms[0], 5.0);
  EXPECT_DOUBLE_EQ(ms[1], 1.5);
}

TEST(Ccdf, ProbabilitiesAtSamplePoints) {
  const Ccdf c{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(c.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.75);   // P(X > 1)
  EXPECT_DOUBLE_EQ(c.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.at(4.0), 0.0);
}

TEST(Ccdf, ValueAtProbabilityIsInverse) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Ccdf c{std::move(v)};
  EXPECT_NEAR(c.value_at_probability(0.5), 50.5, 1.0);
  EXPECT_NEAR(c.value_at_probability(0.1), 90.1, 1.0);
}

TEST(Ccdf, EmptySample) {
  const Ccdf c{{}};
  EXPECT_EQ(c.n(), 0u);
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.0);
}

TEST(Stats, FormatPmUsesTildeForNegligible) {
  EXPECT_EQ(format_pm(0.01, 0.005), "~");
  EXPECT_EQ(format_pm(1.75, 0.20), "1.75±0.20");
}

// --- Trace + analyzer over a real TCP transfer ----------------------------

struct TraceRig {
  TraceRig()
      : sim{7},
        network{sim},
        trace{network},
        server{sim, network, {net::IpAddr{10}}},
        client{sim, network, {net::IpAddr{1}}} {
    auto deliver = [this](net::PacketPtr p) { network.deliver_local(std::move(p)); };
    up = std::make_unique<net::Link>(
        sim,
        net::Link::Config{.name = "up", .rate_bps = 10e6,
                          .prop_delay = sim::Duration::millis(15),
                          .queue_capacity_bytes = 1 << 20},
        deliver);
    down = std::make_unique<net::Link>(
        sim,
        net::Link::Config{.name = "down", .rate_bps = 10e6,
                          .prop_delay = sim::Duration::millis(15),
                          .queue_capacity_bytes = 1 << 20},
        deliver);
    network.set_access(net::IpAddr{1}, up.get(), down.get());
  }

  void run_transfer(std::uint64_t bytes, double loss = 0.0) {
    if (loss > 0) {
      down->set_loss_model(std::make_unique<net::BernoulliLoss>(loss, sim.rng("l")));
    }
    acceptor = std::make_unique<tcp::TcpAcceptor>(
        server, 80, tcp::TcpConfig{}, [this, bytes](tcp::TcpEndpoint& ep) {
          server_ep = &ep;
          ep.on_data = [&ep, bytes](std::uint64_t, std::uint32_t) { ep.write(bytes); };
        });
    client_ep = std::make_unique<tcp::TcpEndpoint>(
        client, net::SocketAddr{net::IpAddr{1}, 40000}, net::SocketAddr{net::IpAddr{10}, 80},
        tcp::TcpConfig{});
    client_ep->connect();
    client_ep->write(100);
    sim.run_for(sim::Duration::seconds(120));
  }

  sim::Simulation sim;
  net::Network network;
  PacketTrace trace;
  net::Host server;
  net::Host client;
  std::unique_ptr<net::Link> up, down;
  std::unique_ptr<tcp::TcpAcceptor> acceptor;
  std::unique_ptr<tcp::TcpEndpoint> client_ep;
  tcp::TcpEndpoint* server_ep{nullptr};
};

TEST(TraceAnalyzer, BytesDeliveredMatchesTransfer) {
  TraceRig rig;
  rig.run_transfer(500000);
  const TcptraceAnalyzer an{rig.trace};
  const net::FlowKey data_dir{net::SocketAddr{net::IpAddr{10}, 80},
                              net::SocketAddr{net::IpAddr{1}, 40000}};
  const FlowReport* fr = an.flow(data_dir);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->bytes_delivered, 500000u);
  EXPECT_EQ(fr->retransmitted_packets, 0u);
}

TEST(TraceAnalyzer, LossRateAgreesWithEndpointMetrics) {
  TraceRig rig;
  rig.run_transfer(2 << 20, 0.02);
  EXPECT_EQ(rig.client_ep->metrics().bytes_received, 2u << 20);
  const TcptraceAnalyzer an{rig.trace};
  const net::FlowKey data_dir{net::SocketAddr{net::IpAddr{10}, 80},
                              net::SocketAddr{net::IpAddr{1}, 40000}};
  const FlowReport* fr = an.flow(data_dir);
  ASSERT_NE(fr, nullptr);
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_EQ(fr->data_packets_sent, rig.server_ep->metrics().data_packets_sent);
  EXPECT_EQ(fr->retransmitted_packets, rig.server_ep->metrics().rexmit_packets);
  EXPECT_NEAR(fr->loss_rate(), rig.server_ep->metrics().loss_rate(), 1e-12);
}

TEST(TraceAnalyzer, RttSamplesMatchPathRtt) {
  TraceRig rig;
  rig.run_transfer(300000);
  const TcptraceAnalyzer an{rig.trace};
  const net::FlowKey data_dir{net::SocketAddr{net::IpAddr{10}, 80},
                              net::SocketAddr{net::IpAddr{1}, 40000}};
  const FlowReport* fr = an.flow(data_dir);
  ASSERT_NE(fr, nullptr);
  ASSERT_GT(fr->rtt_samples.size(), 10u);
  for (const sim::Duration d : fr->rtt_samples) {
    EXPECT_GE(d.to_millis(), 30.0 - 0.5);
    EXPECT_LE(d.to_millis(), 30.0 + 80.0);  // delack + serialization slack
  }
}

TEST(TraceAnalyzer, KarnExcludesRetransmittedRanges) {
  TraceRig rig;
  rig.run_transfer(2 << 20, 0.05);
  const TcptraceAnalyzer an{rig.trace};
  const net::FlowKey data_dir{net::SocketAddr{net::IpAddr{10}, 80},
                              net::SocketAddr{net::IpAddr{1}, 40000}};
  const FlowReport* fr = an.flow(data_dir);
  ASSERT_NE(fr, nullptr);
  // With Karn's rule the analyzer takes fewer samples than packets sent.
  EXPECT_LT(fr->rtt_samples.size(),
            fr->data_packets_sent - fr->retransmitted_packets + 1);
  // And no sample can be below the physical floor.
  for (const sim::Duration d : fr->rtt_samples) EXPECT_GE(d.to_millis(), 29.9);
}

TEST(TraceAnalyzer, SeparatesDirections) {
  TraceRig rig;
  rig.run_transfer(100000);
  const TcptraceAnalyzer an{rig.trace};
  const net::FlowKey up_dir{net::SocketAddr{net::IpAddr{1}, 40000},
                            net::SocketAddr{net::IpAddr{10}, 80}};
  const FlowReport* fr = an.flow(up_dir);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->bytes_delivered, 100u);  // the request
}

TEST(PacketTrace, RecordsDropsAsWellAsDeliveries) {
  TraceRig rig;
  rig.run_transfer(1 << 20, 0.05);
  int drops = 0;
  for (const TraceRecord& r : rig.trace.records()) {
    if (r.kind == net::TraceEvent::Kind::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0);
}

TEST(PacketTrace, BackgroundLoadedLinkCapturesOnlyClientFlows) {
  // Heavy phantom cross-traffic shares the lossy downlink: phantoms are
  // served, delayed and dropped there, but they are no Packets, so the
  // capture holds only the client's and server's records.
  TraceRig rig;
  netem::BackgroundTraffic bg{rig.sim, *rig.down,
                              {.on_utilization = 0.5, .on_fraction = 1.0,
                               .mean_on = sim::Duration::seconds(60)},
                              rig.sim.rng("bg")};
  rig.run_transfer(1 << 20, 0.05);
  std::uint64_t client_packets = 0;
  std::uint64_t drop_records = 0;
  for (const TraceRecord& r : rig.trace.records()) {
    for (const net::IpAddr a : {r.flow.src.addr, r.flow.dst.addr}) {
      EXPECT_TRUE(a == net::IpAddr{1} || a == net::IpAddr{10}) << net::to_string(a);
    }
    if (r.kind == net::TraceEvent::Kind::kSend && r.flow.dst.addr == net::IpAddr{1}) {
      ++client_packets;
    }
    if (r.kind == net::TraceEvent::Kind::kDrop && r.flow.dst.addr == net::IpAddr{1}) {
      ++drop_records;
    }
  }
  const net::Link::Stats& down = rig.down->stats();
  EXPECT_GT(bg.packets_injected(), client_packets);  // the link was background-loaded
  EXPECT_EQ(down.packets_offered, client_packets + bg.packets_injected());
  // Phantom drops count in the link's stats only.
  EXPECT_GT(drop_records, 0u);
  EXPECT_GT(down.packets_dropped_queue + down.packets_dropped_wire, drop_records);
}

TEST(Pcap, RoundTripPreservesHeaders) {
  TraceRig rig;
  rig.run_transfer(100000);
  const std::string path = ::testing::TempDir() + "/mpr_roundtrip.pcap";
  ASSERT_TRUE(write_pcap(rig.trace, path));
  const auto packets = read_pcap(path);
  ASSERT_TRUE(packets.has_value());
  std::size_t delivers = 0;
  for (const TraceRecord& r : rig.trace.records()) {
    if (r.kind == net::TraceEvent::Kind::kDeliver) ++delivers;
  }
  ASSERT_EQ(packets->size(), delivers);
  // First delivered packet is the SYN arriving at the server.
  const PcapPacket& syn = packets->front();
  EXPECT_EQ(syn.flags & 0x02, 0x02);
  EXPECT_EQ(syn.dst_port, 80);
  EXPECT_EQ(syn.src_ip, 0x0A000001u);   // ip1 -> 10.0.0.1
  EXPECT_EQ(syn.dst_ip, 0x0A00000Au);  // ip10 -> 10.0.0.10
  // Timestamps are non-decreasing and lengths include payload.
  double prev = -1;
  std::uint64_t payload_total = 0;
  for (const PcapPacket& p : *packets) {
    EXPECT_GE(p.timestamp_s, prev);
    prev = p.timestamp_s;
    payload_total += p.orig_len - 40;
  }
  EXPECT_GE(payload_total, 100000u);
}

TEST(Pcap, SenderSideCaptureSelectsKSend) {
  TraceRig rig;
  rig.run_transfer(50000);
  const std::string path = ::testing::TempDir() + "/mpr_send.pcap";
  PcapWriteOptions opts;
  opts.kind = net::TraceEvent::Kind::kSend;
  ASSERT_TRUE(write_pcap(rig.trace, path, opts));
  const auto packets = read_pcap(path);
  ASSERT_TRUE(packets.has_value());
  std::size_t sends = 0;
  for (const TraceRecord& r : rig.trace.records()) {
    if (r.kind == net::TraceEvent::Kind::kSend) ++sends;
  }
  EXPECT_EQ(packets->size(), sends);
}

TEST(Pcap, ReadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/mpr_garbage.pcap";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a capture file at all", f);
  std::fclose(f);
  EXPECT_FALSE(read_pcap(path).has_value());
  EXPECT_FALSE(read_pcap("/nonexistent/definitely.pcap").has_value());
}

TEST(PacketTrace, ClearEmptiesBuffer) {
  TraceRig rig;
  rig.run_transfer(100000);
  EXPECT_GT(rig.trace.size(), 0u);
  rig.trace.clear();
  EXPECT_EQ(rig.trace.size(), 0u);
}

}  // namespace
}  // namespace mpr::analysis
