// One MPTCP subflow: a TcpEndpoint whose data source is the connection's
// scheduler and whose options carry the MPTCP signaling (MP_CAPABLE /
// MP_JOIN on SYNs, DSS mappings and data-acks on established traffic).
#pragma once

#include <cstdint>

#include "tcp/endpoint.h"

namespace mpr::core {

class MptcpConnection;

class MptcpSubflow final : public tcp::TcpEndpoint {
 public:
  enum class HandshakeKind { kCapable, kJoin };

  MptcpSubflow(net::Host& host, net::SocketAddr local, net::SocketAddr remote,
               tcp::TcpConfig config, tcp::CongestionControl* cc, MptcpConnection& conn,
               std::uint8_t id, HandshakeKind kind, bool backup = false);

  [[nodiscard]] std::uint8_t id() const { return id_; }
  [[nodiscard]] HandshakeKind kind() const { return kind_; }
  /// RFC 6824 B bit: the subflow only carries data when every regular
  /// subflow is unusable (full-MPTCP vs backup mode, cf. Paasch et al.).
  [[nodiscard]] bool backup() const { return backup_; }
  /// A subflow is healthy when established and not in a timeout spiral.
  [[nodiscard]] bool healthy() const {
    return state() == tcp::TcpState::kEstablished &&
           consecutive_timeouts() < tcp::kDeadRtoThreshold;
  }
  /// Changes this subflow's backup priority and signals the peer with
  /// MP_PRIO (sticky on outgoing packets; idempotent at the receiver).
  void set_backup_flag(bool backup);
  /// Data-level bytes the scheduler has assigned to this subflow (used by
  /// the round-robin policy's deficit ordering).
  [[nodiscard]] std::uint64_t scheduled_bytes() const { return scheduled_bytes_; }

 protected:
  std::optional<Chunk> next_chunk(std::uint32_t max_len) override;
  void decorate_outgoing(net::Packet& p) override;
  void process_options(const net::Packet& p) override;
  void handle_established() override;
  void handle_data(std::uint64_t offset, std::uint32_t len,
                   const std::optional<net::DssOption>& dss) override;
  void handle_rto() override;
  void handle_connect_failed() override;
  void handle_reset(bool during_handshake) override;
  void handle_forward_ack() override;
  [[nodiscard]] std::uint64_t advertised_window() const override;

 private:
  MptcpConnection& conn_;
  std::uint8_t id_;
  HandshakeKind kind_;
  bool backup_;
  bool prio_dirty_{false};
  std::uint64_t scheduled_bytes_{0};
  /// The peer echoed our handshake option kind (MP_CAPABLE / MP_JOIN). When
  /// a middlebox strips it, the handshake completes as plain TCP and the
  /// RFC 6824 fallback rules apply (see handle_established).
  bool peer_confirmed_{false};
  /// Remainder of a DSS mapping that covered more payload than its segment
  /// carried (middlebox split): where the next mapping-less bytes belong.
  struct PendingMap {
    std::uint64_t dsn{0};
    std::uint64_t offset{0};
    std::uint32_t len{0};
  };
  std::optional<PendingMap> pending_map_;
};

}  // namespace mpr::core
