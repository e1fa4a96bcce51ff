#include "net/network.h"

#include <cassert>
#include <utility>

namespace mpr::net {

void Network::attach_host(IpAddr addr, DeliverFn deliver) {
  assert(deliver);
  hosts_.set(addr, std::move(deliver));
}

void Network::set_access(IpAddr client_addr, Link* up, Link* down) {
  assert(up != nullptr && down != nullptr);
  uplinks_.set(client_addr, up);
  downlinks_.set(client_addr, down);
  up->set_drop_observer([this](const Packet& p) { notify_drop(p); });
  down->set_drop_observer([this](const Packet& p) { notify_drop(p); });
}

void Network::send(PacketPtr p) {
  notify(TraceEvent::Kind::kSend, *p);
  if (Link* const* up = uplinks_.find(p->src)) {
    (*up)->send(std::move(p));
    return;
  }
  if (Link* const* down = downlinks_.find(p->dst)) {
    (*down)->send(std::move(p));
    return;
  }
  // No access network on either side (e.g. wired test rigs): direct delivery.
  sim_.after(kWiredDelay, [this, pkt = std::move(p)]() mutable { deliver_local(std::move(pkt)); });
}

void Network::deliver_local(PacketPtr p) {
  DeliverFn* host = hosts_.find(p->dst);
  if (host == nullptr) return;  // no such host: the packet sinks here
  notify(TraceEvent::Kind::kDeliver, *p);
  (*host)(std::move(p));
}

void Network::notify_drop(const Packet& p) { notify(TraceEvent::Kind::kDrop, p); }

void Network::notify(TraceEvent::Kind kind, const Packet& p) {
  if (observers_.empty()) return;
  const TraceEvent ev{kind, sim_.now(), p};
  for (const auto& o : observers_) o(ev);
}

}  // namespace mpr::net
