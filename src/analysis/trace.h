// Packet capture, tcpdump-style.
//
// Subscribes to the network's trace events and stores a compact record per
// packet send/delivery/drop. The TcptraceAnalyzer (trace_analyzer.h)
// replays a capture to compute the paper's §3.3 metrics independently of
// the endpoints' own counters — mirroring the paper's tcpdump+tcptrace
// methodology and serving as cross-validation in the tests.
//
// A record is 80 flat bytes: the 8-byte words first (time, uid, flow, seq,
// ack and the DSS mapping's dsn/data_ack), then the 4-, 2- and 1-byte
// fields, so nothing pads between them. The DSS option is stored inline
// behind presence bits; dss() rebuilds the std::optional on demand.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>

#include "net/network.h"
#include "sim/flat_vec.h"

namespace mpr::analysis {

struct TraceRecord {
  sim::TimePoint time;
  std::uint64_t uid{0};
  net::FlowKey flow;
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  // The DSS mapping, valid iff kDssPresent is set in dss_bits_. Public only
  // so the record stays an aggregate; read it through dss().
  std::uint64_t dss_dsn_{0};
  std::uint64_t dss_data_ack_{0};
  std::uint32_t payload{0};
  std::uint32_t dss_length_{0};
  std::uint16_t dss_checksum_{0};
  net::TraceEvent::Kind kind{net::TraceEvent::Kind::kSend};
  std::uint8_t flags{0};
  bool is_retransmit{false};
  std::uint8_t dss_bits_{0};

  enum DssBit : std::uint8_t {
    kDssPresent = 1u << 0,
    kDssDataAck = 1u << 1,
    kDssDataFin = 1u << 2,
    kDssChecksum = 1u << 3,
  };

  /// The packet's DSS option as captured, or nullopt if it carried none.
  [[nodiscard]] std::optional<net::DssOption> dss() const {
    if ((dss_bits_ & kDssPresent) == 0) return std::nullopt;
    return net::DssOption{.dsn = dss_dsn_,
                          .length = dss_length_,
                          .data_ack = dss_data_ack_,
                          .has_data_ack = (dss_bits_ & kDssDataAck) != 0,
                          .data_fin = (dss_bits_ & kDssDataFin) != 0,
                          .checksum = dss_checksum_,
                          .has_checksum = (dss_bits_ & kDssChecksum) != 0};
  }
};

static_assert(sizeof(TraceRecord) <= 80, "a capture holds one record per packet event");
static_assert(std::is_trivially_copyable_v<TraceRecord>, "records are stored in a FlatVec");

class PacketTrace {
 public:
  /// Starts capturing from `network` immediately. The trace must outlive
  /// the network's use of the observer — in practice, keep it alongside the
  /// testbed for the whole run.
  explicit PacketTrace(net::Network& network);

  /// Pre-sizes the record store. Callers that know roughly how many packet
  /// events a run produces (e.g. from the file size) pass a hint so the
  /// capture never reallocates mid-run; without one, growth happens in
  /// fixed chunks rather than doubling, bounding transient over-allocation.
  void reserve_records(std::size_t expected) { records_.reserve_exact(expected); }

  [[nodiscard]] const sim::FlatVec<TraceRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Drops the records but keeps the capacity (repeated-run reuse).
  void clear() { records_.clear(); }

 private:
  /// Runs on every packet event: one capacity check and a store.
  void append(const net::TraceEvent& ev);
  /// The capture's only allocation, out of line and cold.
  [[gnu::noinline, gnu::cold]] void grow();

  sim::FlatVec<TraceRecord> records_;
};

}  // namespace mpr::analysis
