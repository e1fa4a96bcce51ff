// Analysis-layer tests: statistics, CCDFs, packet traces and the
// tcptrace-style flow analyzer (cross-validated against endpoint metrics
// and against a std::map reference analyzer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "analysis/pcap.h"
#include "analysis/stats.h"
#include "analysis/trace.h"
#include "analysis/trace_analyzer.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "net/host.h"
#include "net/link.h"
#include "netem/background.h"
#include "sim/rng.h"
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

TEST(PacketTrace, RecordDssMatchesPacketOption) {
  sim::Simulation sim{1};
  net::Network network{sim};
  PacketTrace trace{network};
  net::Packet plain;
  plain.payload_bytes = 1400;
  network.notify_drop(plain);
  const net::DssOption options[] = {
      {.dsn = 7, .length = 1400},
      {.dsn = 1u << 20, .length = 900, .data_ack = 12345, .has_data_ack = true},
      {.dsn = 99, .length = 0, .data_fin = true},
      {.dsn = 1ull << 40, .length = 1400, .checksum = 0xbeef, .has_checksum = true},
  };
  std::vector<std::optional<net::DssOption>> sent{plain.tcp.dss_opt()};
  for (const net::DssOption& o : options) {
    net::Packet p;
    p.tcp.set_dss(o);
    sent.push_back(p.tcp.dss_opt());
    network.notify_drop(p);
  }
  ASSERT_EQ(trace.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::optional<net::DssOption> got = trace.records()[i].dss();
    ASSERT_EQ(got.has_value(), sent[i].has_value()) << "record " << i;
    if (!got) continue;
    EXPECT_EQ(got->dsn, sent[i]->dsn);
    EXPECT_EQ(got->length, sent[i]->length);
    EXPECT_EQ(got->data_ack, sent[i]->data_ack);
    EXPECT_EQ(got->has_data_ack, sent[i]->has_data_ack);
    EXPECT_EQ(got->data_fin, sent[i]->data_fin);
    EXPECT_EQ(got->checksum, sent[i]->checksum);
    EXPECT_EQ(got->has_checksum, sent[i]->has_checksum);
  }
}

// --- Flat analyzer vs the std::map reference ------------------------------

/// The analyzer as it stood before the flat rewrite, kept verbatim as the
/// oracle: pending segments and retransmitted ranges in std::maps, Karn's
/// check a scan over every retransmitted range.
class MapTcptraceAnalyzer {
 public:
  explicit MapTcptraceAnalyzer(std::span<const TraceRecord> records) {
    struct PendingSegment {
      std::uint64_t end{0};
      sim::TimePoint sent;
    };
    struct Work {
      FlowReport report;
      std::map<std::uint64_t, PendingSegment> pending;
      std::map<std::uint64_t, std::uint64_t> rexmitted;  // seq -> end
    };
    std::map<net::FlowKey, Work> work;

    for (const TraceRecord& r : records) {
      if (r.kind == net::TraceEvent::Kind::kSend && r.payload > 0) {
        Work& w = work[r.flow];
        w.report.flow = r.flow;
        ++w.report.data_packets_sent;
        if (r.is_retransmit) {
          ++w.report.retransmitted_packets;
          w.rexmitted[r.seq] = r.seq + r.payload;
          w.pending.erase(r.seq);
        } else if (!w.pending.contains(r.seq)) {
          w.pending.emplace(r.seq, PendingSegment{r.seq + r.payload, r.time});
        }
      }

      if (r.kind == net::TraceEvent::Kind::kDeliver) {
        if (r.payload > 0) {
          work[r.flow].report.flow = r.flow;
          work[r.flow].report.bytes_delivered += r.payload;
        }
        if ((r.flags & net::kFlagAck) != 0) {
          const net::FlowKey data_dir = r.flow.reversed();
          const auto it = work.find(data_dir);
          if (it != work.end()) {
            Work& w = it->second;
            while (!w.pending.empty()) {
              auto seg = w.pending.begin();
              if (seg->second.end > r.ack) break;
              const bool tainted =
                  std::any_of(w.rexmitted.begin(), w.rexmitted.end(), [&](const auto& kv) {
                    return kv.first < seg->second.end && kv.second > seg->first;
                  });
              if (!tainted) w.report.rtt_samples.push_back(r.time - seg->second.sent);
              w.pending.erase(seg);
            }
          }
        }
      }
    }

    for (auto& [key, w] : work) {
      if (w.report.data_packets_sent == 0 && w.report.bytes_delivered == 0) continue;
      index_[key] = reports_.size();
      reports_.push_back(std::move(w.report));
    }
  }

  [[nodiscard]] const std::vector<FlowReport>& flows() const { return reports_; }
  [[nodiscard]] const FlowReport* flow(const net::FlowKey& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &reports_[it->second];
  }

 private:
  std::vector<FlowReport> reports_;
  std::map<net::FlowKey, std::size_t> index_;
};

void expect_same_report(const FlowReport& got, const FlowReport& want) {
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.data_packets_sent, want.data_packets_sent);
  EXPECT_EQ(got.retransmitted_packets, want.retransmitted_packets);
  EXPECT_EQ(got.bytes_delivered, want.bytes_delivered);
  EXPECT_EQ(got.rtt_samples, want.rtt_samples);
}

/// What an oracle comparison covered.
struct Compared {
  std::size_t rtt_samples{0};
  std::uint64_t retransmits{0};
};

/// Runs both analyzers over `records` and requires identical output: the
/// flows() list in order, and every flow() lookup including a miss.
Compared expect_matches_reference(std::span<const TraceRecord> records) {
  const TcptraceAnalyzer flat{records};
  const MapTcptraceAnalyzer ref{records};
  EXPECT_EQ(flat.flows().size(), ref.flows().size());
  Compared seen;
  for (std::size_t i = 0; i < std::min(flat.flows().size(), ref.flows().size()); ++i) {
    expect_same_report(flat.flows()[i], ref.flows()[i]);
    seen.rtt_samples += ref.flows()[i].rtt_samples.size();
    seen.retransmits += ref.flows()[i].retransmitted_packets;
    const FlowReport* hit = flat.flow(ref.flows()[i].flow);
    EXPECT_EQ(hit, &flat.flows()[i]);
  }
  const net::FlowKey absent{net::SocketAddr{net::IpAddr{0xdead}, 1},
                            net::SocketAddr{net::IpAddr{0xbeef}, 2}};
  EXPECT_EQ(ref.flow(absent), nullptr);
  EXPECT_EQ(flat.flow(absent), nullptr);
  return seen;
}

/// A synthetic capture over several bidirectional connections. Each
/// direction owns a table of overlapping segments (seq, len); sends pick
/// segments out of order, repeat them, and retransmit them at their own
/// length, ACKs are cumulative or land mid-segment, and drops, pure ACKs
/// and flagless deliveries are mixed in.
std::vector<TraceRecord> synthetic_trace(std::uint64_t seed) {
  sim::Rng rng{seed};
  struct Segment {
    std::uint64_t seq;
    std::uint32_t len;
  };
  struct Direction {
    net::FlowKey flow;
    std::vector<Segment> segments;
    std::size_t next{0};  // first segment never sent in order yet
  };
  std::vector<Direction> dirs;
  const int conns = static_cast<int>(rng.uniform_int(1, 4));
  for (int c = 0; c < conns; ++c) {
    const net::FlowKey fwd{net::SocketAddr{net::IpAddr{10}, 80},
                           net::SocketAddr{net::IpAddr{static_cast<std::uint32_t>(1 + c % 2)},
                                           static_cast<std::uint16_t>(40000 + c)}};
    for (const net::FlowKey& flow : {fwd, fwd.reversed()}) {
      Direction d{flow, {}, 0};
      std::uint64_t seq = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
      const int n = static_cast<int>(rng.uniform_int(5, 60));
      for (int k = 0; k < n; ++k) {
        d.segments.push_back(Segment{seq, static_cast<std::uint32_t>(rng.uniform_int(1, 3000))});
        seq += static_cast<std::uint64_t>(rng.uniform_int(1, 1500));
      }
      dirs.push_back(std::move(d));
    }
  }

  std::vector<TraceRecord> out;
  std::int64_t now = 0;
  const int events = static_cast<int>(rng.uniform_int(50, 800));
  for (int e = 0; e < events; ++e) {
    now += rng.uniform_int(0, 2'000'000);
    Direction& d = dirs[static_cast<std::size_t>(rng.uniform_int(0, dirs.size() - 1))];
    TraceRecord r;
    r.time = sim::TimePoint::from_ns(now);
    r.uid = static_cast<std::uint64_t>(e);
    r.flow = d.flow;
    r.flags = net::kFlagAck;
    const double pick = rng.uniform();
    const auto segment = [&]() -> const Segment& {
      // Mostly the next new segment, sometimes any earlier or later one.
      if (d.next < d.segments.size() && rng.chance(0.6)) return d.segments[d.next++];
      return d.segments[static_cast<std::size_t>(rng.uniform_int(0, d.segments.size() - 1))];
    };
    if (pick < 0.40) {  // data send: new, duplicate, out of order or retransmit
      const Segment& s = segment();
      r.kind = net::TraceEvent::Kind::kSend;
      r.seq = s.seq;
      r.payload = s.len;
      r.is_retransmit = rng.chance(0.25);
      if (!r.is_retransmit && rng.chance(0.05)) {
        r.payload = static_cast<std::uint32_t>(rng.uniform_int(1, 3000));  // re-split send
      }
    } else if (pick < 0.50) {  // pure ACK or SYN at the sender: no payload
      r.kind = net::TraceEvent::Kind::kSend;
      r.flags = rng.chance(0.5) ? net::kFlagAck : net::kFlagSyn;
    } else if (pick < 0.60) {  // drop
      const Segment& s = segment();
      r.kind = net::TraceEvent::Kind::kDrop;
      r.seq = s.seq;
      r.payload = s.len;
    } else {  // delivery: payload and/or an ACK of the reverse direction
      r.kind = net::TraceEvent::Kind::kDeliver;
      if (rng.chance(0.4)) {
        const Segment& s = segment();
        r.seq = s.seq;
        r.payload = s.len;
      }
      const Direction* rev = nullptr;
      for (const Direction& o : dirs) {
        if (o.flow == d.flow.reversed()) rev = &o;
      }
      const Segment& acked =
          rev->segments[static_cast<std::size_t>(rng.uniform_int(0, rev->segments.size() - 1))];
      const double how = rng.uniform();
      if (how < 0.6) {
        r.ack = acked.seq + acked.len;  // cumulative, at a segment end
      } else if (how < 0.9) {
        r.ack = acked.seq + static_cast<std::uint64_t>(rng.uniform_int(0, acked.len));
      } else {
        r.ack = rev->segments.back().seq + 5000;  // covers everything
      }
      if (rng.chance(0.1)) r.flags = net::kFlagSyn;  // no ACK flag
    }
    out.push_back(r);
  }
  return out;
}

TEST(TraceAnalyzerOracle, RandomizedSyntheticTracesMatchMapReference) {
  Compared total;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<TraceRecord> records = synthetic_trace(seed);
    const Compared seen = expect_matches_reference(records);
    total.rtt_samples += seen.rtt_samples;
    total.retransmits += seen.retransmits;
  }
  // The traces really exercise the RTT sampler and Karn's check.
  EXPECT_GT(total.rtt_samples, 1000u);
  EXPECT_GT(total.retransmits, 1000u);
}

/// Compares both analyzers over a captured download of `run_cfg`.
Compared expect_capture_matches_reference(const experiment::RunConfig& run_cfg,
                                             std::uint64_t seed) {
  experiment::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.capture_trace = true;
  experiment::Testbed tb{cfg};
  const experiment::RunResult r = experiment::run_download(tb, run_cfg);
  EXPECT_TRUE(r.completed);
  const auto& records = tb.trace()->records();
  return expect_matches_reference(std::span{records.begin(), records.end()});
}

TEST(TraceAnalyzerOracle, FaultedDownloadMatchesMapReference) {
  experiment::RunConfig run;
  run.cc = core::CcKind::kOlia;
  run.file_bytes = 1 << 20;
  run.faults
      .burst_loss(0.3, "wifi",
                  {.p_good_to_bad = 0.03, .p_bad_to_good = 0.25, .loss_good = 0.01,
                   .loss_bad = 0.35})
      .loss_clear(1.5, "wifi")
      .iface_down(2.0, "wifi")
      .iface_up(3.0, "wifi");
  const Compared seen = expect_capture_matches_reference(run, 5);
  EXPECT_GT(seen.rtt_samples, 100u);
  EXPECT_GT(seen.retransmits, 0u);
}

TEST(TraceAnalyzerOracle, MiddleboxSplitDownloadMatchesMapReference) {
  experiment::RunConfig run;
  run.file_bytes = 1 << 20;
  run.faults.middlebox(0.0, "wifi", netem::MboxOp::kSplit, 3)
      .middlebox(0.0, "cell", netem::MboxOp::kSplit, 2);
  EXPECT_GT(expect_capture_matches_reference(run, 6).rtt_samples, 100u);
}

/// Hand-written captures for one data direction: each add() is a record
/// 1 ms after the previous one.
struct DirectedTrace {
  const net::FlowKey data{net::SocketAddr{net::IpAddr{10}, 80},
                          net::SocketAddr{net::IpAddr{1}, 40000}};
  std::vector<TraceRecord> records;

  void send(std::uint64_t seq, std::uint32_t payload, bool rexmit = false) {
    add(net::TraceEvent::Kind::kSend, data, seq, payload, 0, rexmit);
  }
  void ack(std::uint64_t ack) {
    add(net::TraceEvent::Kind::kDeliver, data.reversed(), 0, 0, ack, false);
  }

 private:
  void add(net::TraceEvent::Kind kind, const net::FlowKey& flow, std::uint64_t seq,
           std::uint32_t payload, std::uint64_t ack, bool rexmit) {
    TraceRecord r;
    r.time = sim::TimePoint::from_ns(static_cast<std::int64_t>(records.size() + 1) * 1'000'000);
    r.kind = kind;
    r.flow = flow;
    r.seq = seq;
    r.payload = payload;
    r.ack = ack;
    r.flags = net::kFlagAck;
    r.is_retransmit = rexmit;
    records.push_back(r);
  }
};

TEST(TraceAnalyzerOracle, SendAfterOverlappingRetransmitGetsNoSample) {
  DirectedTrace t;
  t.send(0, 1000);              // [0, 1000)
  t.send(0, 1000, true);        // retransmitted
  t.send(500, 1000);            // [500, 1500): overlaps it
  t.send(3000, 1000);           // [3000, 4000): clean
  t.ack(4000);
  const TcptraceAnalyzer an{t.records};
  const FlowReport* fr = an.flow(t.data);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->data_packets_sent, 4u);
  EXPECT_EQ(fr->retransmitted_packets, 1u);
  // Only [3000, 4000) is sampled, from its send (4th record) to the ACK.
  ASSERT_EQ(fr->rtt_samples.size(), 1u);
  EXPECT_EQ(fr->rtt_samples[0], sim::Duration::millis(1));
  expect_matches_reference(t.records);
}

TEST(TraceAnalyzerOracle, ResendAfterRetransmitRearmsTheSegment) {
  // A retransmit takes seq 0 out of the pending table; a later new send at
  // seq 0 puts it back, so it holds the ACK sweep until it is covered.
  DirectedTrace t;
  t.send(0, 1000);
  t.send(0, 1000, true);
  t.send(0, 3000);              // [0, 3000), resent after the retransmit
  t.send(1500, 500);            // [1500, 2000): clean
  t.ack(2000);                  // stops at [0, 3000)
  t.ack(3000);                  // samples [1500, 2000) here: 2 ms
  const TcptraceAnalyzer an{t.records};
  const FlowReport* fr = an.flow(t.data);
  ASSERT_NE(fr, nullptr);
  ASSERT_EQ(fr->rtt_samples.size(), 1u);
  EXPECT_EQ(fr->rtt_samples[0], sim::Duration::millis(2));
  expect_matches_reference(t.records);
}

}  // namespace
}  // namespace mpr::analysis
