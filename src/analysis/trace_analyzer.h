// tcptrace-style flow analysis over a packet capture.
//
// Computes, per unidirectional flow (identified by FlowKey of the data
// direction), the paper's metrics from the capture alone:
//  * loss rate  — retransmitted data packets / data packets sent (kSend
//    events at the sender)
//  * RTT samples — time from a data packet's send to the first delivered
//    reverse-direction ACK with ack > segment end, excluding segments that
//    were ever retransmitted (tcptrace's Karn-compliant estimator, §3.3)
//  * bytes carried — payload bytes delivered to the receiver
//
// One pass over the capture with flat per-flow state: a small flow table,
// the segments awaiting their first ACK in a sequence-sorted table, and the
// union of retransmitted ranges, so Karn's check costs O(log r) per acked
// segment for r disjoint retransmitted ranges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/trace.h"
#include "sim/time.h"

namespace mpr::analysis {

struct FlowReport {
  net::FlowKey flow;  // data direction: sender -> receiver
  std::uint64_t data_packets_sent{0};
  std::uint64_t retransmitted_packets{0};
  std::uint64_t bytes_delivered{0};
  std::vector<sim::Duration> rtt_samples;

  [[nodiscard]] double loss_rate() const {
    return data_packets_sent == 0 ? 0.0
                                  : static_cast<double>(retransmitted_packets) /
                                        static_cast<double>(data_packets_sent);
  }
};

class TcptraceAnalyzer {
 public:
  /// Analyzes all flows that carried payload in `trace`.
  explicit TcptraceAnalyzer(const PacketTrace& trace)
      : TcptraceAnalyzer{std::span{trace.records().begin(), trace.records().end()}} {}
  /// Analyzes a capture's records, in capture order.
  explicit TcptraceAnalyzer(std::span<const TraceRecord> records);

  /// Reports for every data-carrying flow direction found, in FlowKey order.
  [[nodiscard]] const std::vector<FlowReport>& flows() const { return reports_; }

  /// Report for one direction, or nullptr if it carried no data.
  [[nodiscard]] const FlowReport* flow(const net::FlowKey& key) const;

 private:
  std::vector<FlowReport> reports_;  // sorted by flow
};

}  // namespace mpr::analysis
