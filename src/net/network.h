// Network fabric: routes packets between hosts through per-client-interface
// access links.
//
// Topology model (matching the paper's testbed): the bottleneck of every path
// is the client-side access network (WiFi AP + backhaul, or the cellular
// radio access network). Each client interface owns one uplink and one
// downlink; all subflows using that interface — to either server NIC — share
// them, which is what makes 4-path MPTCP share the two physical media.
// Server NICs sit on 1 Gbit/s wired LANs, modelled as a fixed small wired
// delay folded into the access links.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulation.h"

namespace mpr::net {

/// Passive observer of packet events, used by the trace/analysis layer.
/// Holds a reference into the live packet — observers must copy out any
/// fields they keep; the packet is recycled once delivery completes.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSend, kDeliver, kDrop };
  Kind kind{Kind::kSend};
  sim::TimePoint time;
  const Packet& packet;
};

class Network {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;
  using Observer = std::function<void(const TraceEvent&)>;

  explicit Network(sim::Simulation& sim) : sim_{sim} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers final delivery for packets addressed to `addr`. Topology
  /// set-up: call before traffic flows.
  void attach_host(IpAddr addr, DeliverFn deliver);

  /// Registers the access links of a client interface. Packets sourced from
  /// `client_addr` traverse `up`; packets destined to it traverse `down`.
  /// Links must outlive the network.
  void set_access(IpAddr client_addr, Link* up, Link* down);

  /// Entry point for hosts. Routes via the appropriate access link, or, if
  /// neither side has one, delivers after `wired_delay()`.
  void send(PacketPtr p);

  /// Called by links when a packet exits the access network; delivers to the
  /// destination host (and notifies observers). Public so links can bind it.
  void deliver_local(PacketPtr p);

  void add_observer(Observer o) { observers_.push_back(std::move(o)); }
  void notify_drop(const Packet& p);

  [[nodiscard]] static constexpr sim::Duration wired_delay() { return kWiredDelay; }

  [[nodiscard]] std::uint64_t next_packet_uid() { return next_uid_++; }

 private:
  void notify(TraceEvent::Kind kind, const Packet& p);

  /// Address-keyed table. A run has a handful of addresses (host interfaces,
  /// client access links), so a linear scan beats hashing on every hop.
  template <typename T>
  struct AddrTable {
    std::vector<std::pair<IpAddr, T>> entries;
    [[nodiscard]] T* find(IpAddr a) {
      for (auto& [key, value] : entries) {
        if (key == a) return &value;
      }
      return nullptr;
    }
    void set(IpAddr a, T value) {
      if (T* existing = find(a)) {
        *existing = std::move(value);
      } else {
        entries.emplace_back(a, std::move(value));
      }
    }
  };

  sim::Simulation& sim_;
  AddrTable<DeliverFn> hosts_;
  AddrTable<Link*> uplinks_;
  AddrTable<Link*> downlinks_;
  std::vector<Observer> observers_;
  static constexpr sim::Duration kWiredDelay = sim::Duration::millis(1);
  std::uint64_t next_uid_{1};
};

}  // namespace mpr::net
