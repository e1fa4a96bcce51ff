// TCP endpoint ("socket").
//
// A packet-level TCP implementation sufficient for the paper's experiments:
//   * three-way handshake with SYN retransmission and backoff
//   * byte-sequence send machinery with per-segment bookkeeping
//   * slow start (IW = 10 segments, configurable initial ssthresh),
//     congestion avoidance via a pluggable CongestionControl
//   * fast retransmit / NewReno fast recovery with a SACK scoreboard
//     (RFC 6675-style pipe accounting)
//   * RFC 6298 retransmission timer with exponential backoff
//   * delayed ACKs with a Linux-style quick-ack startup phase
//   * receive-side reassembly with SACK generation and window advertisement
//
// MPTCP subflows subclass this and override the protected hooks: chunk
// fetching (the connection's packet scheduler feeds subflows), option
// decoration/processing (DSS data-acks, MP_CAPABLE/MP_JOIN), and
// delivery (into the connection-level reorder buffer).
//
// Sequence numbers are 64-bit and start at 0 for each direction (SYN
// occupies seq 0, data starts at 1); wraparound handling is intentionally
// omitted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/host.h"
#include "net/packet.h"
#include "sim/flat_vec.h"
#include "tcp/config.h"
#include "tcp/congestion.h"
#include "tcp/metrics.h"

namespace mpr::tcp {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,    // we sent FIN, awaiting its ack (data rx still possible)
  kCloseWait,  // peer sent FIN; we may still send
  kLastAck,
  kDone,
};

class TcpEndpoint : public FlowCc {
 public:
  /// `cc` may be shared across endpoints (MPTCP couplings); if null the
  /// endpoint owns a private NewRenoCc.
  TcpEndpoint(net::Host& host, net::SocketAddr local, net::SocketAddr remote, TcpConfig config,
              CongestionControl* cc = nullptr);
  ~TcpEndpoint() override;

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  // --- Application interface -----------------------------------------
  /// Active open: sends the SYN. Records metrics().first_syn_time.
  void connect();
  /// Passive open: consume an incoming SYN (called by TcpListener).
  void accept_syn(const net::Packet& syn);
  /// Appends `bytes` to the outgoing stream (plain-TCP data source).
  void write(std::uint64_t bytes);
  /// Half-close: FIN is emitted once all stream data has been sent.
  void shutdown_write();
  /// Hard-kills the endpoint: timers cancelled, no further packets sent or
  /// processed (the interface went away). Unsent/unacked data is the
  /// caller's problem (MPTCP reinjects it elsewhere).
  void abort();

  /// In-order data delivered to the application: (stream offset, length).
  std::function<void(std::uint64_t, std::uint32_t)> on_data;
  std::function<void()> on_established;
  std::function<void()> on_peer_fin;

  // --- Introspection ---------------------------------------------------
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const FlowMetrics& metrics() const { return metrics_; }
  [[nodiscard]] net::SocketAddr local() const { return local_; }
  [[nodiscard]] net::SocketAddr remote() const { return remote_; }
  [[nodiscard]] std::uint64_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::uint64_t snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] bool in_recovery() const { return in_recovery_; }
  [[nodiscard]] sim::Duration rto() const { return rto_; }
  /// RTOs fired since the last forward ACK — a health signal used by the
  /// MPTCP path manager to detect a dead path (backup-mode failover).
  [[nodiscard]] std::uint32_t consecutive_timeouts() const { return consecutive_timeouts_; }

  // --- FlowCc (congestion controller's view) ---------------------------
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double w) override { cwnd_ = std::max(w, 1.0 * kMss); }
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  void set_ssthresh_bytes(std::uint64_t s) override {
    ssthresh_ = std::max<std::uint64_t>(s, 2 * kMss);
  }
  [[nodiscard]] std::uint32_t mss() const override { return kMss; }
  [[nodiscard]] sim::Duration srtt() const override {
    return have_rtt_ ? srtt_ : sim::Duration::millis(100);
  }
  [[nodiscard]] std::uint64_t bytes_in_flight() const override;

  /// Whether the congestion and peer windows admit more data right now.
  /// Exposed so MPTCP schedulers can push window-exhausted subflows to the
  /// back of the pumping order instead of stranding fresh chunks on them.
  [[nodiscard]] bool has_window_space() const { return bytes_in_flight() < send_window(); }

  /// Re-evaluates whether more segments can be sent (public so the MPTCP
  /// scheduler can pump subflows when new connection-level data arrives).
  void pump();

  /// Sends a bare ACK immediately (also used to carry MPTCP signals such as
  /// ADD_ADDR and data-level acks). No-op once the endpoint is closed.
  void send_ack_now();

  /// Sends an RST for this flow (refused join, checksum-failure teardown).
  /// The caller decides what to do with the local state (usually abort()).
  void send_reset();

  /// Cumulatively acked bytes of the outgoing *stream* (sequence space minus
  /// SYN/FIN). Lets a plain-TCP-fallback MPTCP connection track data-level
  /// progress without DSS data-acks.
  [[nodiscard]] std::uint64_t stream_acked_bytes() const {
    std::uint64_t upper = snd_una_;
    if (fin_sent_ && upper > fin_seq_) upper = fin_seq_;
    return upper > 0 ? upper - 1 : 0;
  }

  /// Data-level mappings of segments sent but not yet cumulatively acked
  /// (for MPTCP reinjection after a subflow stalls).
  struct OutstandingMapping {
    std::uint64_t dsn{0};
    std::uint32_t len{0};
  };
  [[nodiscard]] std::vector<OutstandingMapping> outstanding_mappings() const;

 public:
  /// A unit of data handed to the send machinery (public so the MPTCP
  /// connection can produce chunks for its subflows).
  struct Chunk {
    std::uint32_t len{0};
    std::optional<std::uint64_t> dsn;  // MPTCP data sequence (if subflow)
    bool data_fin{false};              // MPTCP DATA_FIN rides on this chunk
  };

 protected:
  /// Next data to transmit, at most `max_len` bytes; nullopt if none ready.
  /// Default implementation drains the internal stream from write().
  virtual std::optional<Chunk> next_chunk(std::uint32_t max_len);
  /// Hook: add options to an outgoing packet (e.g. MPTCP DSS data-ack).
  virtual void decorate_outgoing(net::Packet& p);
  /// Hook: inspect options of any incoming packet (before data processing).
  virtual void process_options(const net::Packet& p);
  /// Hook: called on transition to ESTABLISHED.
  virtual void handle_established() {}
  /// Hook: in-order data arrived (seq-level). Default invokes on_data.
  virtual void handle_data(std::uint64_t offset, std::uint32_t len,
                           const std::optional<net::DssOption>& dss);
  /// Hook: retransmission timeout fired (MPTCP reinjection trigger).
  virtual void handle_rto() {}
  /// Hook: active open gave up (SYN retries exhausted, state is kClosed).
  /// MPTCP uses this to retry lost MP_JOINs with its own backoff.
  virtual void handle_connect_failed() {}
  /// Hook: peer sent RST; state is already kClosed and timers cancelled.
  /// Default treats a handshake-time reset like a failed connect.
  virtual void handle_reset(bool during_handshake) {
    if (during_handshake) handle_connect_failed();
  }
  /// Hook: a forward (snd_una-advancing) ACK finished processing. The
  /// plain-TCP-fallback MPTCP connection derives data-level progress here.
  virtual void handle_forward_ack() {}
  /// Hook: receive window to advertise. Default: subflow-local buffer.
  /// MPTCP subflows advertise the connection-level window instead.
  [[nodiscard]] virtual std::uint64_t advertised_window() const;

  [[nodiscard]] sim::Simulation& sim() { return host_.sim(); }
  [[nodiscard]] net::Host& host() { return host_; }

 private:
  struct SegInfo {
    std::uint32_t len{0};
    std::optional<std::uint64_t> dsn;
    bool data_fin{false};
    sim::TimePoint sent_time;
    std::uint32_t rexmits{0};
    bool sacked{false};
    bool lost{false};              // marked lost, retransmission pending
    bool rexmitted_this_recovery{false};
    bool fin{false};               // FIN segment (consumes 1 seq, no payload)
  };
  struct RxSeg {
    std::uint32_t len{0};
    std::optional<net::DssOption> dss;
  };

  // Packet handling.
  void on_packet(net::PacketPtr p);
  void handle_syn_sent(const net::Packet& p);
  void handle_syn_received(const net::Packet& p);
  void process_ack_side(const net::Packet& p);
  void process_data_side(const net::Packet& p);
  void process_sack(const net::SackList& blocks);
  void update_loss_marks();
  void enter_recovery(bool loss_state);
  void on_rto_timer();
  void frto_spurious();
  void frto_genuine_loss();
  void mark_all_outstanding_lost();

  // Sending.
  void send_syn(bool with_ack);
  void send_segment_new(Chunk chunk);
  void retransmit(std::uint64_t seq);
  void maybe_send_fin();
  /// Pooled outgoing packet with the common header fields filled in.
  net::PacketPtr make_packet(std::uint8_t flags, std::uint64_t seq, std::uint32_t payload);
  [[nodiscard]] std::uint64_t send_window() const;

  // ACK generation (receiver side).
  void ack_received_data(bool out_of_order);
  void fill_sack_blocks(net::Packet& p);

  // Timers.
  void arm_rto();
  void cancel_rto();
  void restart_rto_if_needed();
  void cancel_delack();

  // RTT estimation.
  void rtt_sample(sim::Duration sample);

  // Metric caching (Linux tcp_metrics; see TcpConfig::metrics_cache).
  void note_ssthresh_for_cache();

  void become_established();
  void deliver_in_order();
  /// Deliver the not-yet-received tail of a segment starting at `seq`
  /// (precondition: seq <= rcv_nxt_ < seq + len). A trim only happens when a
  /// middlebox re-segmented the stream so that retransmissions no longer line
  /// up with the receiver's edge; plain runs always hit the skip == 0 path.
  void deliver_from(std::uint64_t seq, std::uint32_t len, std::optional<net::DssOption> dss);

  /// Single funnel for state changes; under MPR_AUDIT every transition is
  /// validated against the TCP state machine's allow-list.
  void set_state(TcpState next);

  net::Host& host_;
  net::SocketAddr local_;
  net::SocketAddr remote_;
  TcpConfig config_;
  std::unique_ptr<CongestionControl> owned_cc_;
  CongestionControl* cc_;

  TcpState state_{TcpState::kClosed};
  FlowMetrics metrics_;

  // Sender. The retransmission state is a flat sequence map
  // (sim/flat_vec.h): segments are appended in sequence order at snd_nxt_
  // and retired from the front by cumulative ACKs, so no tree is needed —
  // every ACK-side scan is a linear walk over contiguous memory.
  std::uint64_t snd_una_{0};
  std::uint64_t snd_nxt_{0};
  sim::SeqFlatMap<SegInfo> unacked_;
  std::uint64_t sacked_bytes_{0};
  std::uint64_t lost_bytes_{0};
  std::uint64_t highest_sacked_{0};
  double cwnd_{0};
  std::uint64_t ssthresh_{0};
  bool in_recovery_{false};
  bool recovery_is_loss_{false};  // RTO recovery: slow-start growth allowed
  std::uint64_t recovery_point_{0};
  // F-RTO (RFC 5682, simplified): after an RTO only the head is
  // retransmitted; the next ACKs decide between "spurious" (restore the
  // saved congestion state) and "genuine" (fall back to go-back-N).
  bool frto_active_{false};
  double frto_prior_cwnd_{0};
  std::uint64_t frto_prior_ssthresh_{0};
  std::uint64_t frto_rexmit_end_{0};
  int frto_inconclusive_acks_{0};
  std::uint32_t dupacks_{0};
  std::uint64_t peer_rwnd_{64 * 1024};
  std::uint64_t app_pending_{0};
  bool fin_requested_{false};
  bool fin_sent_{false};
  std::uint64_t fin_seq_{0};  // sequence our FIN occupies (once sent)
  int syn_retries_{0};
  std::uint32_t consecutive_timeouts_{0};
  bool pumping_{false};

  // RTT / RTO.
  bool have_rtt_{false};
  sim::Duration srtt_{};
  sim::Duration rttvar_{};
  sim::Duration rto_;
  sim::EventId rto_timer_{sim::kInvalidEventId};
  sim::TimePoint syn_sent_time_;

  // Receiver. Out-of-order segments arrive sparsely and stay few (bounded
  // by the receive window), so a sorted flat map beats a tree here.
  std::uint64_t rcv_nxt_{0};
  sim::SeqFlatMap<RxSeg> ooo_;
  std::uint64_t ooo_bytes_{0};
  std::uint32_t segs_since_ack_{0};
  std::uint32_t quickack_left_{kQuickackSegments};
  sim::EventId delack_timer_{sim::kInvalidEventId};
  bool peer_fin_seen_{false};
  std::uint64_t peer_fin_seq_{0};
  /// DSACK (RFC 2883): duplicate segment range reported in the next ACK's
  /// first SACK block so the sender can tell duplicate arrivals from loss.
  std::optional<net::SackBlock> pending_dsack_;
};

}  // namespace mpr::tcp
