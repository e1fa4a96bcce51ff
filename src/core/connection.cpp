#include "core/connection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mpr::core {

PacketScheduler::PacketScheduler(SchedulerKind kind, std::vector<double> weights)
    : kind_{kind} {
  if (kind_ != SchedulerKind::kWeighted) return;
  weights_ = std::move(weights);
  for (double& w : weights_) {
    if (!std::isfinite(w) || w <= 0.0) w = 1.0;
  }
}

void PacketScheduler::order(std::vector<MptcpSubflow*>& subflows) const {
  if (kind_ == SchedulerKind::kMinRtt || kind_ == SchedulerKind::kRedundant) {
    std::stable_sort(subflows.begin(), subflows.end(),
                     [](const MptcpSubflow* a, const MptcpSubflow* b) {
                       return a->srtt() < b->srtt();
                     });
    return;
  }
  // Deficit round-robin. Subflows without window space sort behind those
  // with it: a cwnd-exhausted subflow (e.g. one collapsed to 1 MSS by an
  // outage, with nothing in flight after loss marking) would otherwise keep
  // the lowest deficit, soak up the front of every round and strand fresh
  // chunks until RTO reinjection.
  std::stable_sort(subflows.begin(), subflows.end(),
                   [this](const MptcpSubflow* a, const MptcpSubflow* b) {
                     if (a->has_window_space() != b->has_window_space()) {
                       return a->has_window_space();
                     }
                     return static_cast<double>(a->scheduled_bytes()) / weight(a->id()) <
                            static_cast<double>(b->scheduled_bytes()) / weight(b->id());
                   });
}

// ---------------------------------------------------------------------------
// Construction.

MptcpConnection::MptcpConnection(net::Host& host, MptcpConfig config,
                                 std::vector<net::IpAddr> local_addrs, net::SocketAddr server,
                                 std::uint64_t local_key)
    : host_{host},
      config_{config},
      role_{Role::kClient},
      local_addrs_{std::move(local_addrs)},
      server_primary_{server},
      local_key_{local_key},
      cc_{make_congestion_control(config.cc)},
      scheduler_{config.scheduler, config.scheduler_weights},
      rx_{config.subflow.receive_buffer} {
  assert(!local_addrs_.empty());
  known_remote_addrs_.push_back(server.addr);
#if MPR_AUDIT
  audit_ = &host_.sim().service<check::Auditor>().make_conn(local_key_);
  check::scheduler_weights_valid(config_.scheduler_weights, local_key_);
#endif
  rx_.on_deliver = [this](std::uint64_t dsn, std::uint32_t len) {
#if MPR_AUDIT
    audit_->on_deliver(dsn, len, host_.sim().now().ns());
#endif
    if (on_data) on_data(dsn, len);
    if (data_fin_dsn_ && rx_.rcv_nxt() >= *data_fin_dsn_ && !data_fin_delivered_) {
      data_fin_delivered_ = true;
      if (on_data_fin) on_data_fin();
    }
  };
}

MptcpConnection::MptcpConnection(net::Host& host, MptcpConfig config,
                                 const net::Packet& capable_syn,
                                 std::vector<net::IpAddr> advertise, std::uint64_t local_key)
    : host_{host},
      config_{config},
      role_{Role::kServer},
      server_primary_{net::SocketAddr{capable_syn.dst, capable_syn.tcp.dst_port}},
      advertise_addrs_{std::move(advertise)},
      local_key_{local_key},
      cc_{make_congestion_control(config.cc)},
      scheduler_{config.scheduler, config.scheduler_weights},
      rx_{config.subflow.receive_buffer} {
  assert(capable_syn.tcp.mp_capable() != nullptr);
  remote_key_ = capable_syn.tcp.mp_capable()->sender_key;
  known_remote_addrs_.push_back(capable_syn.src);
  local_addrs_ = host.addrs();
  first_syn_time_ = host.sim().now();
#if MPR_AUDIT
  audit_ = &host_.sim().service<check::Auditor>().make_conn(local_key_);
  check::scheduler_weights_valid(config_.scheduler_weights, local_key_);
#endif
  rx_.on_deliver = [this](std::uint64_t dsn, std::uint32_t len) {
#if MPR_AUDIT
    audit_->on_deliver(dsn, len, host_.sim().now().ns());
#endif
    if (on_data) on_data(dsn, len);
    if (data_fin_dsn_ && rx_.rcv_nxt() >= *data_fin_dsn_ && !data_fin_delivered_) {
      data_fin_delivered_ = true;
      if (on_data_fin) on_data_fin();
    }
  };

  MptcpSubflow& sf =
      create_subflow(net::SocketAddr{capable_syn.dst, capable_syn.tcp.dst_port},
                     net::SocketAddr{capable_syn.src, capable_syn.tcp.src_port},
                     MptcpSubflow::HandshakeKind::kCapable);
  sf.accept_syn(capable_syn);
}

std::uint64_t MptcpConnection::token() const {
  // Token identifying this connection in MP_JOIN: derived from the client's
  // key (the real protocol hashes it; identity is enough here).
  return role_ == Role::kClient ? local_key_ : remote_key_;
}

std::vector<MptcpSubflow*> MptcpConnection::subflows() const {
  std::vector<MptcpSubflow*> out;
  out.reserve(subflows_.size());
  for (const auto& sf : subflows_) out.push_back(sf.get());
  return out;
}

MptcpSubflow& MptcpConnection::create_subflow(net::SocketAddr local, net::SocketAddr remote,
                                              MptcpSubflow::HandshakeKind kind, bool backup) {
  const auto id = static_cast<std::uint8_t>(subflows_.size());
  subflows_.push_back(std::make_unique<MptcpSubflow>(host_, local, remote, config_.subflow,
                                                     cc_.get(), *this, id, kind, backup));
  MptcpSubflow& sf = *subflows_.back();
  // In plain-TCP fallback there is no DATA_FIN; the subflow FIN marks the
  // end of the data stream.
  sf.on_peer_fin = [this] {
    if (fallback_ == FallbackKind::kPlainTcp) on_data_fin_signal(rx_.rcv_nxt());
  };
  return sf;
}

bool MptcpConnection::is_backup_addr(net::IpAddr addr) const {
  return std::find(config_.backup_local_addrs.begin(), config_.backup_local_addrs.end(),
                   addr) != config_.backup_local_addrs.end();
}

bool MptcpConnection::any_healthy_regular_subflow() const {
  for (const auto& sf : subflows_) {
    if (!sf->backup() && sf->healthy()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Client establishment.

void MptcpConnection::connect() {
  assert(role_ == Role::kClient);
  assert(subflows_.empty());
  first_syn_time_ = host_.sim().now();

  MptcpSubflow& initial =
      create_subflow(net::SocketAddr{local_addrs_[0], host_.ephemeral_port()}, server_primary_,
                     MptcpSubflow::HandshakeKind::kCapable);
  initial.connect();

  if (config_.simultaneous_syns) {
    joins_started_ = true;
    // §4.1.2: fire all JOIN SYNs at the same instant as the first SYN.
    for (std::size_t i = 1; i < local_addrs_.size(); ++i) {
      MptcpSubflow& sf =
          create_subflow(net::SocketAddr{local_addrs_[i], host_.ephemeral_port()},
                         server_primary_, MptcpSubflow::HandshakeKind::kJoin,
                         is_backup_addr(local_addrs_[i]));
      sf.connect();
    }
  }
}

void MptcpConnection::start_delayed_joins() {
  for (std::size_t i = 1; i < local_addrs_.size(); ++i) {
    MptcpSubflow& sf = create_subflow(net::SocketAddr{local_addrs_[i], host_.ephemeral_port()},
                                      server_primary_, MptcpSubflow::HandshakeKind::kJoin,
                                      is_backup_addr(local_addrs_[i]));
    sf.connect();
  }
}

void MptcpConnection::join_towards(net::IpAddr remote_addr) {
  for (const net::IpAddr local : local_addrs_) {
    MptcpSubflow& sf = create_subflow(net::SocketAddr{local, host_.ephemeral_port()},
                                      net::SocketAddr{remote_addr, server_primary_.port},
                                      MptcpSubflow::HandshakeKind::kJoin,
                                      is_backup_addr(local));
    sf.connect();
  }
}

void MptcpConnection::on_remote_add_addr(net::IpAddr addr) {
  if (role_ != Role::kClient) return;
  if (std::find(known_remote_addrs_.begin(), known_remote_addrs_.end(), addr) !=
      known_remote_addrs_.end()) {
    return;
  }
  known_remote_addrs_.push_back(addr);
  join_towards(addr);
}

void MptcpConnection::accept_join(const net::Packet& join_syn) {
  assert(role_ == Role::kServer);
  const net::MpJoinOption* join = join_syn.tcp.mp_join();
  const bool backup = join != nullptr && join->backup;
  MptcpSubflow& sf = create_subflow(net::SocketAddr{join_syn.dst, join_syn.tcp.dst_port},
                                    net::SocketAddr{join_syn.src, join_syn.tcp.src_port},
                                    MptcpSubflow::HandshakeKind::kJoin, backup);
  sf.accept_syn(join_syn);
}

void MptcpConnection::on_subflow_established(MptcpSubflow& sf) {
  dead_since_.reset();
  if (role_ == Role::kClient && sf.kind() == MptcpSubflow::HandshakeKind::kJoin) {
    clear_join_retry(sf.local().addr, sf.remote().addr);
  }
  if (!established_) {
    established_ = true;
    if (role_ == Role::kServer && !advertise_addrs_.empty()) {
      add_addr_pending_ = true;
      sf.send_ack_now();  // carry the ADD_ADDR option promptly
    }
    if (on_established) on_established();
  }
  if (role_ == Role::kServer && sf.kind() == MptcpSubflow::HandshakeKind::kJoin) {
    // A join reached one of our advertised addresses: stop re-advertising.
    for (const net::IpAddr a : advertise_addrs_) {
      if (sf.local().addr == a) add_addr_pending_ = false;
    }
  }
  pump_all();
}

void MptcpConnection::decorate_extra(MptcpSubflow& sf, net::Packet& p) {
  if (add_addr_pending_ && sf.kind() == MptcpSubflow::HandshakeKind::kCapable &&
      !advertise_addrs_.empty()) {
    p.tcp.set_add_addr(net::AddAddrOption{advertise_addrs_[0], 1});
  }
  if (remove_addr_pending_) p.tcp.set_remove_addr(*remove_addr_pending_);
  if (pending_mp_fail_) {
    p.tcp.set_mp_fail(net::MpFailOption{*pending_mp_fail_, pending_mp_fail_rst_});
  }
  // Keep signalling DATA_FIN until the peer has seen the whole stream
  // (receivers treat repeats as idempotent).
  if (net::DssOption* dss = p.tcp.dss(); dss != nullptr && data_fin_sent_ && app_pending_ == 0) {
    dss->data_fin = true;
    if (dss->length == 0) dss->dsn = data_snd_nxt_;
  }
}

// ---------------------------------------------------------------------------
// Data plane: send side.

void MptcpConnection::write(std::uint64_t bytes) {
  app_pending_ += bytes;
  pump_all();
}

void MptcpConnection::shutdown_data() {
  data_fin_requested_ = true;
  pump_all();
  // If there was no data left to ride on, signal DATA_FIN on a bare ACK of
  // the first established subflow (it is also attached to every subsequent
  // outgoing packet until acknowledged, so a lost ACK is harmless).
  if (app_pending_ == 0) {
    data_fin_sent_ = true;
    for (const auto& sf : subflows_) {
      if (sf->state() == tcp::TcpState::kEstablished ||
          sf->state() == tcp::TcpState::kCloseWait) {
        sf->send_ack_now();
        break;
      }
    }
    maybe_close_subflows();
  }
}

void MptcpConnection::on_data_fin_signal(std::uint64_t fin_dsn) {
  data_fin_dsn_ = fin_dsn;
  if (!data_fin_delivered_ && rx_.rcv_nxt() >= fin_dsn) {
    data_fin_delivered_ = true;
    if (on_data_fin) on_data_fin();
  }
}

void MptcpConnection::pump_all() {
  if (pumping_all_) return;
  pumping_all_ = true;
  std::vector<MptcpSubflow*>& order = pump_order_;
  order.clear();
  for (const auto& sf : subflows_) {
    if (sf->state() == tcp::TcpState::kEstablished ||
        sf->state() == tcp::TcpState::kCloseWait) {
      order.push_back(sf.get());
    }
  }
  scheduler_.order(order);
#if MPR_AUDIT
  {
    std::vector<check::SchedEntry> entries;
    entries.reserve(order.size());
    for (const MptcpSubflow* sf : order) {
      entries.push_back(check::SchedEntry{
          sf->has_window_space(), sf->srtt().ns(),
          static_cast<double>(sf->scheduled_bytes()) / scheduler_.weight(sf->id())});
    }
    const bool by_space = scheduler_.kind() == SchedulerKind::kRoundRobin ||
                          scheduler_.kind() == SchedulerKind::kWeighted;
    const bool by_srtt = !by_space;
    check::scheduler_pump_order(entries, by_space, by_srtt, local_key_,
                                host_.sim().now().ns());
  }
#endif
  for (MptcpSubflow* sf : order) sf->pump();
  pumping_all_ = false;
}

void MptcpConnection::set_scheduler(SchedulerKind kind, std::vector<double> weights) {
  config_.scheduler = kind;
  config_.scheduler_weights = std::move(weights);
#if MPR_AUDIT
  check::scheduler_weights_valid(config_.scheduler_weights, local_key_);
#endif
  scheduler_ = PacketScheduler{kind, config_.scheduler_weights};
  // Duplicates queued by the old strategy are opportunistic copies; the
  // originals are still outstanding on their subflows, so dropping the
  // queue cannot lose data.
  if (!scheduler_.redundant()) dup_queue_.clear();
  pump_all();
}

std::optional<tcp::TcpEndpoint::Chunk> MptcpConnection::next_chunk_for(
    MptcpSubflow& sf, std::uint32_t max_len) {
  // Plain-TCP fallback: one subflow, no DSS mappings, no reinjection. The
  // data stream rides the subflow's own sequence space; data-level progress
  // is tracked via on_fallback_ack.
  if (fallback_ == FallbackKind::kPlainTcp) {
    if (app_pending_ == 0) return std::nullopt;
    const std::uint64_t data_in_flight = data_snd_nxt_ - data_una_;
    if (data_in_flight >= peer_window_) return std::nullopt;
    const std::uint64_t room = peer_window_ - data_in_flight;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({max_len, app_pending_, room}));
    if (len == 0) return std::nullopt;
    tcp::TcpEndpoint::Chunk chunk;
    chunk.len = len;
    chunk.dsn = data_snd_nxt_;
#if MPR_AUDIT
    audit_->on_send_chunk(*chunk.dsn, len, /*reinject=*/false, sf.id(),
                          host_.sim().now().ns());
#endif
    data_snd_nxt_ += len;
    app_pending_ -= len;
    if (data_fin_requested_ && app_pending_ == 0) data_fin_sent_ = true;
    return chunk;
  }

  // Backup subflows (RFC 6824 B bit) stay idle while any regular subflow
  // is operational.
  if (sf.backup() && any_healthy_regular_subflow()) return std::nullopt;

  // Reinjections of stranded data first (never back onto the origin unless
  // it is the only subflow). Entries the peer has data-acked in the
  // meantime are dropped on the way.
  for (auto it = reinject_queue_.begin(); it != reinject_queue_.end();) {
    if (it->dsn + it->len <= data_una_) {
      it = reinject_queue_.erase(it);
      continue;
    }
    if (it->origin == sf.id() && subflows_.size() > 1) {
      ++it;
      continue;
    }
    tcp::TcpEndpoint::Chunk chunk;
    chunk.dsn = it->dsn;
    if (it->len <= max_len) {
      chunk.len = it->len;
      reinject_queue_.erase(it);
    } else {
      chunk.len = max_len;
      it->dsn += max_len;
      it->len -= max_len;
    }
    ++reinjected_chunks_;
#if MPR_AUDIT
    audit_->on_send_chunk(*chunk.dsn, chunk.len, /*reinject=*/true, sf.id(),
                          host_.sim().now().ns());
#endif
    return chunk;
  }

  // Redundant-scheduler duplicates: consumed by the first subflow that is
  // not the origin, so every duplicated DSN range travels on two paths and
  // the first arrival wins. Entries the peer has data-acked in the meantime
  // are dropped on the way. Audited as reinjections — a duplicate never
  // maps new DSN space.
  for (auto it = dup_queue_.begin(); it != dup_queue_.end();) {
    if (it->dsn + it->len <= data_una_) {
      it = dup_queue_.erase(it);
      continue;
    }
    if (it->origin == sf.id()) {
      ++it;
      continue;
    }
    tcp::TcpEndpoint::Chunk chunk;
    chunk.dsn = it->dsn;
    const std::uint8_t origin = it->origin;
    if (it->len <= max_len) {
      chunk.len = it->len;
      dup_queue_.erase(it);
    } else {
      chunk.len = max_len;
      it->dsn += max_len;
      it->len -= max_len;
    }
    ++redundant_chunks_;
#if MPR_AUDIT
    check::redundant_duplicate(origin, sf.id(), local_key_, *chunk.dsn,
                               host_.sim().now().ns());
    audit_->on_send_chunk(*chunk.dsn, chunk.len, /*reinject=*/true, sf.id(),
                          host_.sim().now().ns());
#else
    (void)origin;
#endif
    return chunk;
  }

  if (app_pending_ == 0) return std::nullopt;

  // Weighted strategy: enforce the configured byte shares, not just the
  // pumping order (a pumping order alone cannot cap a path — every subflow
  // would still fill its congestion window). A subflow more than one chunk
  // ahead of its share declines fresh data while another usable subflow
  // lags; the laggard pulls the next chunk instead. Only subflows that
  // could actually send now (healthy, non-backup, window space) hold a
  // leader back, so a stalled path never throttles the connection.
  if (scheduler_.enforces_shares()) {
    const double mine =
        static_cast<double>(sf.scheduled_bytes()) / scheduler_.weight(sf.id());
    const double slack = static_cast<double>(max_len) / scheduler_.weight(sf.id());
    for (const auto& other : subflows_) {
      if (other.get() == &sf || !other->healthy() || other->backup() ||
          !other->has_window_space()) {
        continue;
      }
      const double theirs = static_cast<double>(other->scheduled_bytes()) /
                            scheduler_.weight(other->id());
      if (mine > theirs + slack) return std::nullopt;
    }
  }

  // Connection-level flow control against the peer's advertised window.
  const std::uint64_t data_in_flight = data_snd_nxt_ - data_una_;
  if (data_in_flight >= peer_window_) {
    if (config_.penalization) maybe_penalize();
    return std::nullopt;
  }

  const std::uint64_t room = peer_window_ - data_in_flight;
  const auto len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>({max_len, app_pending_, room}));
  if (len == 0) return std::nullopt;

  tcp::TcpEndpoint::Chunk chunk;
  chunk.len = len;
  chunk.dsn = data_snd_nxt_;
#if MPR_AUDIT
  audit_->on_send_chunk(*chunk.dsn, len, /*reinject=*/false, sf.id(),
                        host_.sim().now().ns());
#endif
  data_snd_nxt_ += len;
  app_pending_ -= len;
  if (data_fin_requested_ && app_pending_ == 0) {
    chunk.data_fin = true;
    data_fin_sent_ = true;
  }
  if (scheduler_.redundant()) {
    // Queue a duplicate for another subflow — only when one exists, so the
    // queue cannot grow unbounded on a single-path connection. DATA_FIN
    // rides the original alone.
    std::size_t established = 0;
    for (const auto& other : subflows_) {
      if (other->state() == tcp::TcpState::kEstablished ||
          other->state() == tcp::TcpState::kCloseWait) {
        ++established;
      }
    }
    if (established >= 2) dup_queue_.push_back(Reinject{*chunk.dsn, chunk.len, sf.id()});
  }
  return chunk;
}

void MptcpConnection::on_data_ack(std::uint64_t data_ack) {
  if (data_ack <= data_una_) return;
#if MPR_AUDIT
  audit_->on_data_ack(data_ack, host_.sim().now().ns());
#endif
  maybe_start_joins();
  data_una_ = data_ack;
  dead_since_.reset();  // data-level progress: some path works
  // Drop reinjection state the ack has made moot.
  while (!reinject_queue_.empty() &&
         reinject_queue_.front().dsn + reinject_queue_.front().len <= data_una_) {
    reinject_queue_.pop_front();
  }
  while (!dup_queue_.empty() &&
         dup_queue_.front().dsn + dup_queue_.front().len <= data_una_) {
    dup_queue_.pop_front();
  }
  reinjected_dsns_.erase_below(data_una_);
  maybe_close_subflows();
  pump_all();
}

void MptcpConnection::maybe_close_subflows() {
  if (subflows_closed_ || !data_fin_sent_) return;
  if (data_una_ < data_snd_nxt_) return;
  // All data acknowledged at the data level: close subflows cleanly.
  subflows_closed_ = true;
  for (const auto& sf : subflows_) sf->shutdown_write();
}

void MptcpConnection::strand(MptcpSubflow& sf) {
  for (const auto& m : sf.outstanding_mappings()) {
    if (m.dsn + m.len <= data_una_) continue;  // already delivered
    if (std::uint8_t* origin = reinjected_dsns_.find(m.dsn)) {
      // Already reinjected once. Same origin: still queued/in flight
      // elsewhere, nothing to do. Different origin: *this* subflow was the
      // reinjection target and has now died too — queue it again.
      if (*origin == sf.id()) continue;
      *origin = sf.id();
    } else {
      reinjected_dsns_.insert(m.dsn, sf.id());
    }
    reinject_queue_.push_back(Reinject{m.dsn, m.len, sf.id()});
  }
}

void MptcpConnection::on_subflow_rto(MptcpSubflow& sf) {
  if (sf.consecutive_timeouts() >= tcp::kDeadRtoThreshold) {
    // A single timeout can be an isolated loss; reinject once the subflow
    // has stalled past the dead-path threshold.
    strand(sf);
    if (!reinject_queue_.empty()) pump_all();
  }
  note_paths_dead();
}

// ---------------------------------------------------------------------------
// Failure-path hardening: MP_JOIN retries and the all-paths-dead deadline.

void MptcpConnection::on_subflow_connect_failed(MptcpSubflow& sf) {
  if (!failed_ && !closing()) {
    if (role_ == Role::kClient && sf.kind() == MptcpSubflow::HandshakeKind::kJoin) {
      schedule_join_retry(sf.local().addr, sf.remote().addr);
    } else if (sf.kind() == MptcpSubflow::HandshakeKind::kCapable && !established_) {
      // The initial handshake gave up: there is no connection to fail over.
      fail_connection();
      return;
    }
  }
  note_paths_dead();
}

void MptcpConnection::schedule_join_retry(net::IpAddr local, net::IpAddr remote) {
  const std::uint64_t key = join_key(local, remote);
  JoinRetryState& st = join_retries_[key];
  if (st.timer != sim::kInvalidEventId) return;
  sim::Duration delay = kJoinRetryInitial;
  for (int i = 0; i < st.attempts && delay < kJoinRetryCap; ++i) delay = delay * 2;
  delay = std::min(delay, kJoinRetryCap);
  ++st.attempts;
  st.timer = host_.sim().after(delay, [this, local, remote, key] {
    join_retries_[key].timer = sim::kInvalidEventId;
    retry_join(local, remote);
  });
}

void MptcpConnection::retry_join(net::IpAddr local, net::IpAddr remote) {
  if (failed_ || closing()) return;
  if (std::find(local_addrs_.begin(), local_addrs_.end(), local) == local_addrs_.end()) return;
  if (std::find(known_remote_addrs_.begin(), known_remote_addrs_.end(), remote) ==
      known_remote_addrs_.end()) {
    return;
  }
  // A live subflow on this pair (e.g. created by an address re-add in the
  // meantime) makes the retry moot.
  for (const auto& sf : subflows_) {
    if (sf->local().addr == local && sf->remote().addr == remote &&
        sf->state() != tcp::TcpState::kClosed && sf->state() != tcp::TcpState::kDone) {
      return;
    }
  }
  MptcpSubflow& sf = create_subflow(net::SocketAddr{local, host_.ephemeral_port()},
                                    net::SocketAddr{remote, server_primary_.port},
                                    MptcpSubflow::HandshakeKind::kJoin, is_backup_addr(local));
  sf.connect();
}

void MptcpConnection::clear_join_retry(net::IpAddr local, net::IpAddr remote) {
  const auto it = join_retries_.find(join_key(local, remote));
  if (it == join_retries_.end()) return;
  if (it->second.timer != sim::kInvalidEventId) host_.sim().cancel(it->second.timer);
  join_retries_.erase(it);
}

bool MptcpConnection::any_viable_subflow() const {
  for (const auto& sf : subflows_) {
    switch (sf->state()) {
      case tcp::TcpState::kSynSent:
      case tcp::TcpState::kSynReceived:
        return true;  // handshake still in progress
      case tcp::TcpState::kEstablished:
      case tcp::TcpState::kCloseWait:
      case tcp::TcpState::kFinWait:
      case tcp::TcpState::kLastAck:
        if (sf->consecutive_timeouts() < tcp::kDeadRtoThreshold) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

void MptcpConnection::note_paths_dead() {
  if (failed_ || closing()) return;
  if (any_viable_subflow()) {
    dead_since_.reset();
    return;
  }
  const sim::TimePoint now = host_.sim().now();
  if (!dead_since_) dead_since_ = now;
  if (dead_timer_ == sim::kInvalidEventId) {
    dead_timer_ = host_.sim().at(*dead_since_ + kAllPathsDeadTimeout,
                                 [this] { on_dead_deadline(); });
  }
}

void MptcpConnection::on_dead_deadline() {
  dead_timer_ = sim::kInvalidEventId;
  if (failed_ || closing()) return;
  if (any_viable_subflow()) {
    dead_since_.reset();
    return;
  }
  if (!dead_since_) return;  // recovered since (observed via a data ack)
  const sim::TimePoint now = host_.sim().now();
  if (now - *dead_since_ >= kAllPathsDeadTimeout) {
    fail_connection();
    return;
  }
  // A newer dead episode started after the timer was armed; re-check then.
  dead_timer_ = host_.sim().at(*dead_since_ + kAllPathsDeadTimeout,
                               [this] { on_dead_deadline(); });
}

void MptcpConnection::fail_connection() {
  if (failed_) return;
  failed_ = true;
  for (auto& [key, st] : join_retries_) {
    if (st.timer != sim::kInvalidEventId) host_.sim().cancel(st.timer);
  }
  join_retries_.clear();
  if (dead_timer_ != sim::kInvalidEventId) {
    host_.sim().cancel(dead_timer_);
    dead_timer_ = sim::kInvalidEventId;
  }
  for (const auto& sf : subflows_) {
    if (sf->state() != tcp::TcpState::kClosed && sf->state() != tcp::TcpState::kDone) {
      sf->abort();
    }
  }
  if (on_error) on_error();
}

// ---------------------------------------------------------------------------
// RFC 6824 fallback: middlebox-stripped options, DSS checksum failures and
// MP_FAIL / infinite-mapping recovery (§3.6–§3.8).

MptcpSubflow* MptcpConnection::other_live_subflow(const MptcpSubflow& sf) const {
  for (const auto& other : subflows_) {
    if (other.get() == &sf) continue;
    if (other->state() == tcp::TcpState::kEstablished ||
        other->state() == tcp::TcpState::kCloseWait) {
      return other.get();
    }
  }
  return nullptr;
}

void MptcpConnection::set_fallback(FallbackKind next) {
#if MPR_AUDIT
  // Fallback is one-way (RFC 6824 §3.7): a connection leaves kNone at most
  // once and never converts between the two fallback kinds.
  static const check::TransitionAudit kFallbackTransitions{
      "mptcp.fallback_transition",
      {"None", "PlainTcp", "InfiniteMapping"},
      {
          {static_cast<int>(FallbackKind::kNone), static_cast<int>(FallbackKind::kPlainTcp)},
          {static_cast<int>(FallbackKind::kNone),
           static_cast<int>(FallbackKind::kInfiniteMapping)},
      }};
  kFallbackTransitions.on_transition(static_cast<int>(fallback_), static_cast<int>(next),
                                     local_key_, /*subflow=*/-1, host_.sim().now().ns());
#endif
  fallback_ = next;
}

void MptcpConnection::enter_plain_fallback(MptcpSubflow& sf) {
  set_fallback(FallbackKind::kPlainTcp);
  fallback_counters_.plain_tcp = true;
  // The connection can never add subflows again; cancel all join machinery
  // and reset every other subflow (they are not part of a plain TCP
  // connection).
  joins_started_ = true;
  for (auto& [key, st] : join_retries_) {
    if (st.timer != sim::kInvalidEventId) host_.sim().cancel(st.timer);
  }
  join_retries_.clear();
  for (const auto& other : subflows_) {
    if (other.get() == &sf) continue;
    if (other->state() != tcp::TcpState::kClosed && other->state() != tcp::TcpState::kDone) {
      other->send_reset();
      other->abort();
    }
  }
}

void MptcpConnection::on_capable_fallback(MptcpSubflow& sf) {
  if (!config_.allow_tcp_fallback) {
    fail_connection();
    return;
  }
  enter_plain_fallback(sf);
}

void MptcpConnection::on_join_refused(MptcpSubflow& sf) {
  ++fallback_counters_.join_refusals;
  clear_join_retry(sf.local().addr, sf.remote().addr);
  note_paths_dead();
}

void MptcpConnection::on_subflow_reset(MptcpSubflow& sf, bool during_handshake) {
  ++fallback_counters_.subflow_resets_received;
  if (failed_ || closing()) return;
  if (during_handshake) {
    if (sf.kind() == MptcpSubflow::HandshakeKind::kCapable && !established_) {
      // RST in reply to the MP_CAPABLE SYN: no connection came up at all.
      fail_connection();
      return;
    }
    // A refused join: the connection survives on its other subflows. The
    // endpoint already went through handle_connect_failed (which handles
    // retry scheduling), so only account for the refusal here.
    ++fallback_counters_.join_refusals;
    clear_join_retry(sf.local().addr, sf.remote().addr);
    note_paths_dead();
    return;
  }
  // Mid-stream RST: treat like a dead path — reinject stranded data. If the
  // RST carried an MP_FAIL, on_remote_mp_fail already queued the precise
  // DSN range (options are processed before the reset). But a middlebox may
  // have stripped the MP_FAIL, leaving a bare RST: the peer TCP-acked (then
  // discarded) segments it could not map, so the stranded set alone misses
  // the acked-but-never-data-acked range. Conservatively requeue everything
  // outstanding at the data level; duplicates are absorbed by the reorder
  // buffer and dropped once data-acked.
  strand(sf);
  if (data_snd_nxt_ > data_una_) {
    const std::uint64_t span = data_snd_nxt_ - data_una_;
    reinject_queue_.push_back(
        Reinject{data_una_,
                 static_cast<std::uint32_t>(
                     std::min<std::uint64_t>(span, std::numeric_limits<std::uint32_t>::max())),
                 sf.id()});
  }
  note_paths_dead();
  pump_all();
}

void MptcpConnection::on_fallback_ack(std::uint64_t acked) {
  if (fallback_ != FallbackKind::kPlainTcp || acked <= data_una_) return;
#if MPR_AUDIT
  audit_->on_data_ack(acked, host_.sim().now().ns());
#endif
  data_una_ = acked;
  dead_since_.reset();
  maybe_close_subflows();
  pump_all();
}

void MptcpConnection::close_subflow_with_mp_fail(MptcpSubflow& sf, std::uint64_t fail_dsn) {
  // MP_FAIL + RST ride out together on the reset that closes the subflow;
  // the peer reinjects everything unacked at the data level.
  pending_mp_fail_ = fail_dsn;
  pending_mp_fail_rst_ = true;
  ++fallback_counters_.mp_fail_sent;
  sf.send_reset();
  pending_mp_fail_rst_ = false;
  pending_mp_fail_.reset();
  strand(sf);
  sf.abort();
  note_paths_dead();
  pump_all();
}

void MptcpConnection::on_checksum_failure(MptcpSubflow& sf) {
  ++fallback_counters_.checksum_failures;
  if (failed_ || closing()) return;
  const std::uint64_t fail_dsn = rx_.rcv_nxt();
  if (config_.checksum_teardown) {
    fail_connection();
    return;
  }
  if (other_live_subflow(sf) != nullptr) {
    // §3.6: close the offending subflow, the connection lives on.
    close_subflow_with_mp_fail(sf, fail_dsn);
    return;
  }
  // Last subflow: fall back to one infinite mapping (§3.7). The MP_FAIL
  // stays attached until data progresses past the failed DSN, prompting the
  // peer to retransmit from there without checksums. No subflow can join a
  // fallen-back connection.
  set_fallback(FallbackKind::kInfiniteMapping);
  fallback_counters_.infinite_mapping = true;
  joins_started_ = true;
  pending_mp_fail_ = fail_dsn;
  ++fallback_counters_.mp_fail_sent;
  sf.send_ack_now();
}

void MptcpConnection::on_remote_mp_fail(MptcpSubflow& sf, std::uint64_t dsn,
                                        bool subflow_closed) {
  if (!mp_fail_seen_.insert(dsn).second) return;  // sticky option: act once
  ++fallback_counters_.mp_fail_received;
  if (failed_ || fallback_ == FallbackKind::kPlainTcp) return;
  if (!subflow_closed && fallback_ != FallbackKind::kInfiniteMapping) {
    // The peer fell back to an infinite mapping on its last subflow; mirror
    // it so our own mappings turn linear too.
    set_fallback(FallbackKind::kInfiniteMapping);
    fallback_counters_.infinite_mapping = true;
    joins_started_ = true;
  }
  // Everything from the failed DSN on needs to reach the peer again: the
  // corrupt range was TCP-acked, so it is not in any outstanding mapping.
  const std::uint64_t from = std::max(dsn, data_una_);
  if (data_snd_nxt_ > from) {
    reinject_queue_.push_back(
        Reinject{from,
                 static_cast<std::uint32_t>(std::min<std::uint64_t>(
                     data_snd_nxt_ - from, std::numeric_limits<std::uint32_t>::max())),
                 subflow_closed ? sf.id() : kReinjectAnyOrigin});
    pump_all();
  }
}

void MptcpConnection::on_unmapped_payload(MptcpSubflow& sf, std::uint64_t offset,
                                          std::uint32_t len) {
  if (fallback_ == FallbackKind::kPlainTcp) {
    on_subflow_data(sf, offset, len, false);
    return;
  }
  // A young connection that never saw a DSS from the peer: a strict proxy
  // strips every MPTCP option mid-handshake — fall back to plain TCP while
  // the streams are still aligned (nothing delivered or acked yet).
  if (fallback_ == FallbackKind::kNone && !dss_seen_ && !failed_ && !closing() &&
      config_.allow_tcp_fallback && other_live_subflow(sf) == nullptr && data_una_ == 0 &&
      rx_.rcv_nxt() == 0) {
    enter_plain_fallback(sf);
    on_subflow_data(sf, offset, len, false);
    return;
  }
  ++fallback_counters_.unmapped_segments;
  if (failed_ || closing()) return;
  if (other_live_subflow(sf) != nullptr) {
    close_subflow_with_mp_fail(sf, rx_.rcv_nxt());
    return;
  }
  // Unmapped bytes on the last subflow of a connection already carrying
  // DSS-mapped data: the data-level sequence cannot be resynchronized
  // (deviation: RFC 6824 would have prevented this by checksums; we tear
  // down via on_error instead of hanging).
  fail_connection();
}

void MptcpConnection::on_plain_packet(MptcpSubflow& sf) {
  if (fallback_ != FallbackKind::kNone || dss_seen_ || failed_ || closing()) return;
  if (!config_.allow_tcp_fallback) return;
  if (sf.state() != tcp::TcpState::kEstablished && sf.state() != tcp::TcpState::kCloseWait) {
    return;
  }
  if (other_live_subflow(sf) != nullptr) return;
  if (data_una_ != 0 || rx_.rcv_nxt() != 0) return;
  enter_plain_fallback(sf);
}

// ---------------------------------------------------------------------------
// Mobility / path management (extensions).

void MptcpConnection::set_subflow_backup(net::IpAddr local_addr, bool backup) {
  for (const auto& sf : subflows_) {
    if (sf->local().addr == local_addr) sf->set_backup_flag(backup);
  }
  pump_all();
}

void MptcpConnection::remove_local_addr(net::IpAddr addr) {
  for (const auto& sf : subflows_) {
    if (sf->local().addr != addr || sf->state() == tcp::TcpState::kClosed) continue;
    strand(*sf);
    sf->abort();
  }
  std::erase(local_addrs_, addr);
  // Cancel any join-retry backoff from the removed address.
  for (auto it = join_retries_.begin(); it != join_retries_.end();) {
    if (static_cast<std::uint32_t>(it->first >> 32) == addr.value) {
      if (it->second.timer != sim::kInvalidEventId) host_.sim().cancel(it->second.timer);
      it = join_retries_.erase(it);
    } else {
      ++it;
    }
  }
  // Withdraw the address; the option stays attached (idempotent via the
  // generation stamp) so a lost ACK cannot strand the peer's subflows.
  remove_addr_pending_ = net::RemoveAddrOption{addr, ++remove_addr_generation_};
  for (const auto& sf : subflows_) {
    if (sf->state() == tcp::TcpState::kEstablished) {
      sf->send_ack_now();
      break;
    }
  }
  note_paths_dead();
  pump_all();
}

void MptcpConnection::add_local_addr(net::IpAddr addr) {
  if (failed_ || closing()) return;
  if (std::find(local_addrs_.begin(), local_addrs_.end(), addr) == local_addrs_.end()) {
    local_addrs_.push_back(addr);
  }
  // Stop withdrawing an address that is back; the generation stamp already
  // protects new subflows against in-flight copies of the old option.
  if (remove_addr_pending_ && remove_addr_pending_->addr == addr) {
    remove_addr_pending_.reset();
  }
  if (role_ != Role::kClient || !joins_started_) return;
  for (const net::IpAddr remote : known_remote_addrs_) {
    bool have_live = false;
    for (const auto& sf : subflows_) {
      if (sf->local().addr == addr && sf->remote().addr == remote &&
          sf->state() != tcp::TcpState::kClosed && sf->state() != tcp::TcpState::kDone) {
        have_live = true;
        break;
      }
    }
    if (have_live) continue;
    clear_join_retry(addr, remote);  // fresh interface: reset the backoff
    MptcpSubflow& sf = create_subflow(net::SocketAddr{addr, host_.ephemeral_port()},
                                      net::SocketAddr{remote, server_primary_.port},
                                      MptcpSubflow::HandshakeKind::kJoin, is_backup_addr(addr));
    sf.connect();
  }
}

void MptcpConnection::on_remote_remove_addr(net::IpAddr addr, std::uint32_t generation) {
  // The withdrawal option is sticky at the sender; process each generation
  // once, or a re-added address's new subflows would be torn down by stale
  // copies still attached to packets in flight.
  if (const auto it = remove_addr_seen_.find(addr);
      it != remove_addr_seen_.end() && generation <= it->second) {
    return;
  }
  remove_addr_seen_[addr] = generation;
  for (const auto& sf : subflows_) {
    if (sf->remote().addr != addr || sf->state() == tcp::TcpState::kClosed) continue;
    strand(*sf);
    sf->abort();
  }
  std::erase(known_remote_addrs_, addr);
  pump_all();
}

void MptcpConnection::maybe_penalize() {
  // Sender-side penalization (Raiciu et al., NSDI'12): when the connection
  // is receive-window limited, halve the window of the slowest subflow with
  // outstanding data — it is the one holding up the data stream. Rate-limit
  // to once per that subflow's RTT.
  MptcpSubflow* victim = nullptr;
  for (const auto& sf : subflows_) {
    if (sf->state() != tcp::TcpState::kEstablished) continue;
    if (sf->outstanding_mappings().empty()) continue;
    if (victim == nullptr || sf->srtt() > victim->srtt()) victim = sf.get();
  }
  if (victim == nullptr) return;
  const sim::TimePoint now = host_.sim().now();
  const auto it = last_penalty_.find(victim);
  if (it != last_penalty_.end() && now - it->second < victim->srtt()) return;
  last_penalty_[victim] = now;
  victim->set_ssthresh_bytes(static_cast<std::uint64_t>(victim->cwnd_bytes() / 2.0));
  victim->set_cwnd_bytes(victim->cwnd_bytes() / 2.0);
  ++penalizations_;
}

// ---------------------------------------------------------------------------
// Data plane: receive side.

void MptcpConnection::on_subflow_data(MptcpSubflow& sf, std::uint64_t dsn, std::uint32_t len,
                                      bool data_fin) {
  maybe_start_joins();
  rx_.insert(dsn, len, host_.sim().now(), sf.id());
  // Infinite-mapping fallback: MP_FAIL stays attached until the peer's
  // retransmissions move the receive edge past the failed DSN.
  if (pending_mp_fail_ && rx_.rcv_nxt() > *pending_mp_fail_) pending_mp_fail_.reset();
  if (data_fin) on_data_fin_signal(dsn + len);
}

void MptcpConnection::maybe_start_joins() {
  // Delayed-SYN path management (see MptcpConfig::simultaneous_syns): the
  // client opens additional subflows once data-level activity confirms the
  // peer speaks MPTCP.
  if (joins_started_ || role_ != Role::kClient) return;
  joins_started_ = true;
  start_delayed_joins();
}

}  // namespace mpr::core
