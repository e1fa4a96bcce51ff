// Packet model.
//
// Packets carry a TCP segment with optional MPTCP options (MP_CAPABLE,
// MP_JOIN, ADD_ADDR, DSS) and SACK blocks. Payload is modelled as a byte
// count only; sequence numbers are 64-bit so wraparound never occurs (the
// real protocol's 32-bit wrap handling is out of scope and orthogonal to the
// paper's measurements).
//
// Hot/cold layout: every data/ACK packet touches seq/ack/flags/wnd and the
// DSS mapping, so those live in the segment's first cache line (the header
// fields + inline DssOption fill bytes 0..64 exactly, pinned by
// static_assert below). The six rare options (handshake, address signalling,
// MP_FAIL) sit in a cold block at the tail behind a presence bitmask —
// previously they were seven std::optional members interleaved with the hot
// fields, and wire_bytes() had to scan all of them on every queue admission,
// drop decision, link serialization, and energy-accounting lookup. Their
// wire-size contribution is now cached in `cold_opt_bytes_` at
// set/clear time (each cold option has a fixed wire size), so wire_bytes()
// reads only the first cache line. DSS and SACK contributions are computed
// live because they are the two variable-size options and their fields are
// hot anyway.
//
// Packets are plain trivially-copyable structs with fully inline storage
// (the SACK list is a fixed-capacity InlineVec), so recycling one through
// the per-simulation PacketPool (packet_pool.h) is a near-memset and no
// heap traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "net/addr.h"
#include "sim/inline_vec.h"
#include "sim/time.h"

namespace mpr::net {

class PacketPool;

/// TCP header flags (bitmask).
enum TcpFlags : std::uint8_t {
  kFlagSyn = 1u << 0,
  kFlagAck = 1u << 1,
  kFlagFin = 1u << 2,
  kFlagRst = 1u << 3,
};

/// One SACK block: [begin, end) in subflow sequence space.
struct SackBlock {
  std::uint64_t begin{0};
  std::uint64_t end{0};
  friend constexpr auto operator<=>(SackBlock, SackBlock) = default;
};

/// MP_CAPABLE: carried on the SYN / SYN-ACK of the first subflow.
struct MpCapableOption {
  std::uint64_t sender_key{0};
  std::uint64_t receiver_key{0};  // set on SYN-ACK
};

/// MP_JOIN: carried on the SYN of additional subflows; `token` identifies the
/// existing MPTCP connection (hash of the peer's key in the real protocol).
/// `backup` is RFC 6824's B bit: the subflow should carry data only when no
/// regular subflow is usable.
struct MpJoinOption {
  std::uint64_t token{0};
  std::uint8_t address_id{0};
  bool backup{false};
};

/// ADD_ADDR: advertises an additional address of the sender.
struct AddAddrOption {
  IpAddr addr;
  std::uint8_t address_id{0};
};

/// REMOVE_ADDR: withdraws an address; the peer tears down subflows to it
/// (mobility: an interface went away — §6 of the paper). The option stays
/// attached to outgoing packets so a lost ACK cannot strand the peer;
/// `generation` makes that idempotency survive the address *coming back*:
/// the receiver ignores generations it has already processed, so subflows
/// created after a re-add are not torn down by the stale withdrawal.
struct RemoveAddrOption {
  IpAddr addr;
  std::uint32_t generation{0};
};

/// MP_PRIO: changes the backup priority of the subflow carrying it.
struct MpPrioOption {
  bool backup{true};
};

/// MP_FAIL (RFC 6824 §3.6): a DSS-checksum failure was detected; `dsn` is
/// the data-level sequence from which the sender must resend. With
/// `subflow_closed` the option rides an RST closing the offending subflow
/// (more subflows remain); without it the connection falls back to an
/// infinite mapping on its last subflow. The option is sticky at the sender
/// until data-level progress passes `dsn`, so a lost packet cannot strand
/// the fallback.
struct MpFailOption {
  std::uint64_t dsn{0};
  bool subflow_closed{false};
};

/// DSS: data sequence signal. Maps this segment's payload into the MPTCP
/// data-level sequence space and acknowledges data-level progress.
struct DssOption {
  std::uint64_t dsn{0};           // data sequence number of first payload byte
  std::uint32_t length{0};        // bytes covered by this mapping
  std::uint64_t data_ack{0};      // cumulative data-level ack
  bool has_data_ack{false};
  bool data_fin{false};
  /// RFC 6824 §3.3 DSS checksum over the mapping (optional; 2 wire bytes
  /// when present). Payload is a byte count in this model, so the checksum
  /// is a structural digest of (dsn, length); a corrupting middlebox mangles
  /// the stored value instead of the bytes it covers.
  std::uint16_t checksum{0};
  bool has_checksum{false};
};

/// The checksum a sender computes for a DSS mapping (see DssOption). A
/// splitmix-style mix so adjacent mappings never collide by accident.
[[nodiscard]] constexpr std::uint16_t dss_checksum(std::uint64_t dsn, std::uint32_t length) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ dsn;
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
  h ^= length;
  h = (h ^ (h >> 32)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint16_t>(h ^ (h >> 16));
}

/// Real TCP option space caps SACK at 3-4 blocks (40 bytes of options, 8 per
/// block); the extra slot leaves room for a DSACK block ahead of 3 merged
/// out-of-order runs.
inline constexpr std::size_t kMaxSackBlocks = 4;
using SackList = sim::InlineVec<SackBlock, kMaxSackBlocks>;

/// TCP segment header (+ options). Sequence/ack numbers count bytes from 0
/// for each subflow direction.
///
/// Option access goes through pointer-returning accessors (`dss()`,
/// `mp_capable()`, ... — nullptr when absent) and set_*/clear_* mutators
/// that keep the presence bitmask and the cached cold-option wire size in
/// sync. Members are public only so the struct stays standard-layout for
/// the offsetof pins; the trailing-underscore fields are implementation
/// detail — never touch them directly.
struct TcpSegment {
  /// Presence bits for the options (kept in the first hot word so
  /// wire_bytes() and the option accessors branch on one cached byte).
  enum OptBit : std::uint8_t {
    kOptMpCapable = 1u << 0,
    kOptMpJoin = 1u << 1,
    kOptAddAddr = 1u << 2,
    kOptRemoveAddr = 1u << 3,
    kOptMpPrio = 1u << 4,
    kOptMpFail = 1u << 5,
    kOptDss = 1u << 6,
  };

  // --- hot: first cache line (bytes 0..64, with DssOption) ---
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint8_t flags{0};
  std::uint8_t opt_mask_{0};         // OptBit presence bitmask
  std::uint16_t cold_opt_bytes_{0};  // cached wire bytes of the cold options below
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  std::uint64_t wnd{0};  // advertised receive window in bytes
  DssOption dss_;        // valid iff kOptDss; hot — every data/ACK touches it
  // --- warm: SACK blocks (variable wire size, computed live) ---
  SackList sack;
  // --- cold: rare options (handshake / address signalling / MP_FAIL).
  //     Fixed wire sizes, pre-summed into cold_opt_bytes_ by set_*/clear_*.
  MpCapableOption mp_capable_;   // valid iff kOptMpCapable
  MpJoinOption mp_join_;         // valid iff kOptMpJoin
  MpFailOption mp_fail_;         // valid iff kOptMpFail
  AddAddrOption add_addr_;       // valid iff kOptAddAddr
  RemoveAddrOption remove_addr_; // valid iff kOptRemoveAddr
  MpPrioOption mp_prio_;         // valid iff kOptMpPrio

  [[nodiscard]] bool has(TcpFlags f) const { return (flags & f) != 0; }

  [[nodiscard]] bool has_opt(OptBit b) const { return (opt_mask_ & b) != 0; }
  [[nodiscard]] bool has_any_option() const { return opt_mask_ != 0; }

  // Pointer-returning accessors: nullptr when the option is absent, so
  // `if (auto* d = p.tcp.dss())` reads like the old std::optional code.
  [[nodiscard]] const DssOption* dss() const { return has_opt(kOptDss) ? &dss_ : nullptr; }
  [[nodiscard]] DssOption* dss() { return has_opt(kOptDss) ? &dss_ : nullptr; }
  [[nodiscard]] const MpCapableOption* mp_capable() const {
    return has_opt(kOptMpCapable) ? &mp_capable_ : nullptr;
  }
  [[nodiscard]] MpCapableOption* mp_capable() {
    return has_opt(kOptMpCapable) ? &mp_capable_ : nullptr;
  }
  [[nodiscard]] const MpJoinOption* mp_join() const {
    return has_opt(kOptMpJoin) ? &mp_join_ : nullptr;
  }
  [[nodiscard]] MpJoinOption* mp_join() { return has_opt(kOptMpJoin) ? &mp_join_ : nullptr; }
  [[nodiscard]] const AddAddrOption* add_addr() const {
    return has_opt(kOptAddAddr) ? &add_addr_ : nullptr;
  }
  [[nodiscard]] AddAddrOption* add_addr() { return has_opt(kOptAddAddr) ? &add_addr_ : nullptr; }
  [[nodiscard]] const RemoveAddrOption* remove_addr() const {
    return has_opt(kOptRemoveAddr) ? &remove_addr_ : nullptr;
  }
  [[nodiscard]] RemoveAddrOption* remove_addr() {
    return has_opt(kOptRemoveAddr) ? &remove_addr_ : nullptr;
  }
  [[nodiscard]] const MpPrioOption* mp_prio() const {
    return has_opt(kOptMpPrio) ? &mp_prio_ : nullptr;
  }
  [[nodiscard]] MpPrioOption* mp_prio() { return has_opt(kOptMpPrio) ? &mp_prio_ : nullptr; }
  [[nodiscard]] const MpFailOption* mp_fail() const {
    return has_opt(kOptMpFail) ? &mp_fail_ : nullptr;
  }
  [[nodiscard]] MpFailOption* mp_fail() { return has_opt(kOptMpFail) ? &mp_fail_ : nullptr; }

  /// std::optional interop for cold-path consumers that store a DSS copy
  /// (trace records, reorder-buffer segments).
  [[nodiscard]] std::optional<DssOption> dss_opt() const {
    return has_opt(kOptDss) ? std::optional<DssOption>(dss_) : std::nullopt;
  }

  // Mutators. The cold options each contribute a fixed number of wire
  // bytes, maintained in cold_opt_bytes_ here — the only places presence
  // can change. DSS/SACK sizes are computed live in Packet::wire_bytes().
  /// Marks a DSS mapping present and returns it for field-level writes
  /// (fresh-zeroed if it was absent, unchanged if already present).
  DssOption& ensure_dss() {
    opt_mask_ |= kOptDss;
    return dss_;
  }
  void set_dss(const DssOption& v) {
    opt_mask_ |= kOptDss;
    dss_ = v;
  }
  void clear_dss() {
    opt_mask_ &= static_cast<std::uint8_t>(~kOptDss);
    dss_ = DssOption{};  // recycled packets must match fresh ones byte-for-byte
  }
  void set_mp_capable(const MpCapableOption& v) {
    set_cold(kOptMpCapable, kMpCapableWireBytes);
    mp_capable_ = v;
  }
  void clear_mp_capable() {
    clear_cold(kOptMpCapable, kMpCapableWireBytes);
    mp_capable_ = MpCapableOption{};
  }
  void set_mp_join(const MpJoinOption& v) {
    set_cold(kOptMpJoin, kMpJoinWireBytes);
    mp_join_ = v;
  }
  void clear_mp_join() {
    clear_cold(kOptMpJoin, kMpJoinWireBytes);
    mp_join_ = MpJoinOption{};
  }
  void set_add_addr(const AddAddrOption& v) {
    set_cold(kOptAddAddr, kAddAddrWireBytes);
    add_addr_ = v;
  }
  void clear_add_addr() {
    clear_cold(kOptAddAddr, kAddAddrWireBytes);
    add_addr_ = AddAddrOption{};
  }
  void set_remove_addr(const RemoveAddrOption& v) {
    set_cold(kOptRemoveAddr, kRemoveAddrWireBytes);
    remove_addr_ = v;
  }
  void clear_remove_addr() {
    clear_cold(kOptRemoveAddr, kRemoveAddrWireBytes);
    remove_addr_ = RemoveAddrOption{};
  }
  void set_mp_prio(const MpPrioOption& v) {
    set_cold(kOptMpPrio, kMpPrioWireBytes);
    mp_prio_ = v;
  }
  void clear_mp_prio() {
    clear_cold(kOptMpPrio, kMpPrioWireBytes);
    mp_prio_ = MpPrioOption{};
  }
  void set_mp_fail(const MpFailOption& v) {
    set_cold(kOptMpFail, kMpFailWireBytes);
    mp_fail_ = v;
  }
  void clear_mp_fail() {
    clear_cold(kOptMpFail, kMpFailWireBytes);
    mp_fail_ = MpFailOption{};
  }

  /// Wire bytes of every attached option: cached cold sum + live DSS/SACK.
  [[nodiscard]] std::uint32_t option_wire_bytes() const {
    std::uint32_t options = cold_opt_bytes_;
    options += static_cast<std::uint32_t>(sack.size()) * 8 + (sack.empty() ? 0 : 2);
    if (has_opt(kOptDss)) options += dss_.has_checksum ? 22 : 20;
    return options;
  }

  // Wire sizes of the fixed-size (cold) options.
  static constexpr std::uint16_t kMpCapableWireBytes = 12;
  static constexpr std::uint16_t kMpJoinWireBytes = 12;
  static constexpr std::uint16_t kAddAddrWireBytes = 8;
  static constexpr std::uint16_t kRemoveAddrWireBytes = 4;
  static constexpr std::uint16_t kMpPrioWireBytes = 4;
  static constexpr std::uint16_t kMpFailWireBytes = 12;

 private:
  void set_cold(OptBit b, std::uint16_t wire) {
    if (!has_opt(b)) {
      opt_mask_ |= b;
      cold_opt_bytes_ = static_cast<std::uint16_t>(cold_opt_bytes_ + wire);
    }
  }
  void clear_cold(OptBit b, std::uint16_t wire) {
    if (has_opt(b)) {
      opt_mask_ &= static_cast<std::uint8_t>(~b);
      cold_opt_bytes_ = static_cast<std::uint16_t>(cold_opt_bytes_ - wire);
    }
  }
};

// Layout pins: the hot header fields plus the inline DSS mapping must fill
// the first cache line exactly, with the cold option block at the tail. A
// member reorder or type growth that breaks the split fails the build here,
// not in a profiler three PRs later. (Standard layout is what makes the
// offsetof pins well-defined; trivial copyability is what makes
// Packet::reset_fields() a block store.)
static_assert(std::is_standard_layout_v<TcpSegment>);
static_assert(std::is_trivially_copyable_v<TcpSegment>);
static_assert(sizeof(DssOption) == 32);
static_assert(offsetof(TcpSegment, seq) == 8);
static_assert(offsetof(TcpSegment, ack) == 16);
static_assert(offsetof(TcpSegment, wnd) == 24);
static_assert(offsetof(TcpSegment, dss_) == 32, "DSS mapping belongs to the first cache line");
static_assert(offsetof(TcpSegment, sack) == 64,
              "header + DSS must fill the first cache line exactly");
static_assert(offsetof(TcpSegment, mp_capable_) == 64 + sizeof(SackList),
              "cold option block must start right after the hot/warm fields");
static_assert(sizeof(TcpSegment) == 208);

/// A packet in flight. On the simulation hot path packets are pool-owned
/// and travel as PacketPtr handles (packet_pool.h); stack-constructed
/// Packets remain fine for tests and field-level inspection.
///
/// Layout: the per-packet bookkeeping every hop reads (uid, addresses,
/// payload size, timestamps) leads, the TCP segment trails so its cold
/// option block is also the cold tail of the whole packet.
struct Packet {
  std::uint64_t uid{0};  // globally unique, assigned by the sending endpoint
  IpAddr src;
  IpAddr dst;
  std::uint32_t payload_bytes{0};
  bool is_retransmit{false};       // sender-side metadata for tracing
  sim::TimePoint first_sent_time;  // stamped by the sending endpoint
  sim::TimePoint enqueue_time;     // spare: queues stamp net::QueueItem instead
  /// Owning pool when pool-managed (set once by PacketPool, never reset):
  /// lets the 8-byte PacketPtr handle recycle without carrying a pool
  /// pointer of its own.
  PacketPool* origin_pool{nullptr};
  TcpSegment tcp;

  /// Returns every protocol field to its default (pool reuse). The pool
  /// backref survives; the struct is trivially copyable with all storage
  /// inline, so this compiles to a block store and never frees memory.
  void reset_fields() {
    PacketPool* pool = origin_pool;
    *this = Packet{};
    origin_pool = pool;
  }

  /// Approximate wire size: payload + IPv4/TCP headers + options. Reads
  /// only the first cache line of the segment (cold option bytes are cached
  /// at set/clear time).
  [[nodiscard]] std::uint32_t wire_bytes() const {
    return payload_bytes + 40 + tcp.option_wire_bytes();
  }

  [[nodiscard]] FlowKey flow() const {
    return FlowKey{SocketAddr{src, tcp.src_port}, SocketAddr{dst, tcp.dst_port}};
  }
};

static_assert(std::is_standard_layout_v<Packet>);
static_assert(std::is_trivially_copyable_v<Packet>);
static_assert(offsetof(Packet, tcp) == 48,
              "packet bookkeeping must stay within the first cache line");
static_assert(sizeof(Packet) == 256, "Packet is exactly four cache lines");

[[nodiscard]] std::string to_string(const Packet& p);

}  // namespace mpr::net
