#include "analysis/trace.h"

namespace mpr::analysis {

namespace {
/// Growth quantum when no reserve_records() hint was given: ~64k records
/// (5 MB) per step instead of capacity doubling, so a long capture's peak
/// transient footprint stays close to its final size.
constexpr std::size_t kGrowthChunk = 64 * 1024;
}  // namespace

PacketTrace::PacketTrace(net::Network& network) {
  network.add_observer([this](const net::TraceEvent& ev) { append(ev); });
}

void PacketTrace::grow() { records_.reserve_exact(records_.capacity() + kGrowthChunk); }

void PacketTrace::append(const net::TraceEvent& ev) {
  if (records_.size() == records_.capacity()) [[unlikely]] {
    grow();
  }
  const net::Packet& p = ev.packet;
  TraceRecord r;
  r.time = ev.time;
  r.uid = p.uid;
  r.flow = p.flow();
  r.seq = p.tcp.seq;
  r.ack = p.tcp.ack;
  r.payload = p.payload_bytes;
  r.kind = ev.kind;
  r.flags = p.tcp.flags;
  r.is_retransmit = p.is_retransmit;
  if (const net::DssOption* dss = p.tcp.dss()) {
    r.dss_dsn_ = dss->dsn;
    r.dss_data_ack_ = dss->data_ack;
    r.dss_length_ = dss->length;
    r.dss_checksum_ = dss->checksum;
    r.dss_bits_ = static_cast<std::uint8_t>(
        TraceRecord::kDssPresent | (dss->has_data_ack ? TraceRecord::kDssDataAck : 0) |
        (dss->data_fin ? TraceRecord::kDssDataFin : 0) |
        (dss->has_checksum ? TraceRecord::kDssChecksum : 0));
  }
  records_.push_back_unchecked(r);
}

}  // namespace mpr::analysis
