#include "analysis/trace_analyzer.h"

#include <algorithm>
#include <utility>

#include "sim/flat_vec.h"

namespace mpr::analysis {

namespace {

/// A data segment awaiting its first covering ACK. A retransmit takes its
/// seq out of sampling; the table marks that with end == 0 (a tombstone:
/// a live segment ends past its start, so never at 0) instead of erasing
/// from the middle, and the ACK sweep drops tombstones as it meets them.
struct PendingSegment {
  std::uint64_t end{0};
  sim::TimePoint sent;
};

/// Every byte range a flow ever retransmitted, kept as a sorted list of
/// disjoint, non-touching [start, end) ranges. It equals the set of
/// (seq, seq + len) retransmits because a retransmit at a seq resends the
/// segment's stored length and capture precedes any middlebox
/// re-segmentation, so a later range at the same seq never shrinks one.
class RetransmittedRanges {
 public:
  void add(std::uint64_t start, std::uint64_t end) {
    if (ranges_.empty() || start > ranges_.back().end) {
      ranges_.push_back(Range{start, end});
      return;
    }
    // [lo, hi): the ranges that overlap or touch [start, end].
    const auto lo = std::partition_point(ranges_.begin(), ranges_.end(),
                                         [&](const Range& r) { return r.end < start; });
    const auto hi = std::partition_point(lo, ranges_.end(),
                                         [&](const Range& r) { return r.start <= end; });
    if (lo == hi) {
      ranges_.insert(lo, Range{start, end});
      return;
    }
    lo->start = std::min(lo->start, start);
    lo->end = std::max((hi - 1)->end, end);
    ranges_.erase(lo + 1, hi);
  }

  /// Whether the non-empty segment [start, end) shares a byte with any
  /// retransmitted range.
  [[nodiscard]] bool overlaps(std::uint64_t start, std::uint64_t end) const {
    const auto it = std::partition_point(ranges_.begin(), ranges_.end(),
                                         [&](const Range& r) { return r.end <= start; });
    return it != ranges_.end() && it->start < end;
  }

 private:
  struct Range {
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Range> ranges_;
};

/// Per data-direction working state.
struct FlowWork {
  FlowReport report;
  sim::SeqFlatMap<PendingSegment> pending;  // keyed by start seq
  RetransmittedRanges rexmitted;            // Karn: excluded from sampling

  void on_send(const TraceRecord& r) {
    ++report.data_packets_sent;
    const std::uint64_t end = r.seq + r.payload;
    if (r.is_retransmit) {
      ++report.retransmitted_packets;
      rexmitted.add(r.seq, end);
      if (PendingSegment* seg = pending.find(r.seq)) seg->end = 0;
      return;
    }
    const PendingSegment seg{end, r.time};
    if (pending.empty() || r.seq > pending.back().seq) {
      pending.push_back(r.seq, seg);
    } else if (PendingSegment* old = pending.find(r.seq)) {
      if (old->end == 0) *old = seg;  // resent after its retransmit
    } else {
      pending.insert(r.seq, seg);
    }
  }

  /// A delivered reverse-direction ACK: every pending segment from the
  /// lowest seq up to the first one it does not cover gets its first ACK.
  void on_ack(std::uint64_t ack, sim::TimePoint at) {
    while (!pending.empty()) {
      const auto& [seq, seg] = pending.front();
      if (seg.end != 0) {
        if (seg.end > ack) break;
        if (!rexmitted.overlaps(seq, seg.end)) report.rtt_samples.push_back(at - seg.sent);
      }
      pending.pop_front();
    }
  }
};

/// A run's capture holds a handful of flow directions, so a linear scan
/// behind a last-hit cache beats hashing every record's key.
class FlowTable {
 public:
  [[nodiscard]] FlowWork* find(const net::FlowKey& key) {
    if (last_ < flows_.size() && flows_[last_].report.flow == key) return &flows_[last_];
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (flows_[i].report.flow == key) {
        last_ = i;
        return &flows_[i];
      }
    }
    return nullptr;
  }

  FlowWork& get(const net::FlowKey& key) {
    if (FlowWork* w = find(key)) return *w;
    last_ = flows_.size();
    flows_.emplace_back().report.flow = key;
    return flows_.back();
  }

  /// The flows in FlowKey order (the order reports are published in).
  std::vector<FlowWork>& sorted() {
    std::sort(flows_.begin(), flows_.end(), [](const FlowWork& a, const FlowWork& b) {
      return a.report.flow < b.report.flow;
    });
    return flows_;
  }

 private:
  std::vector<FlowWork> flows_;
  std::size_t last_{0};
};

}  // namespace

TcptraceAnalyzer::TcptraceAnalyzer(std::span<const TraceRecord> records) {
  FlowTable table;
  for (const TraceRecord& r : records) {
    if (r.kind == net::TraceEvent::Kind::kSend) {
      if (r.payload > 0) table.get(r.flow).on_send(r);
    } else if (r.kind == net::TraceEvent::Kind::kDeliver) {
      // Payload delivered to the receiver of this direction.
      if (r.payload > 0) table.get(r.flow).report.bytes_delivered += r.payload;
      // This packet acknowledges the reverse direction.
      if ((r.flags & net::kFlagAck) != 0) {
        if (FlowWork* w = table.find(r.flow.reversed())) w->on_ack(r.ack, r.time);
      }
    }
  }
  // Every table entry counted a send or a delivery, so each one reports.
  for (FlowWork& w : table.sorted()) reports_.push_back(std::move(w.report));
}

const FlowReport* TcptraceAnalyzer::flow(const net::FlowKey& key) const {
  const auto it = std::lower_bound(
      reports_.begin(), reports_.end(), key,
      [](const FlowReport& r, const net::FlowKey& k) { return r.flow < k; });
  return it != reports_.end() && it->flow == key ? &*it : nullptr;
}

}  // namespace mpr::analysis
