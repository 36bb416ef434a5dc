#include "net/node.hpp"

#include <algorithm>

#include "net/link.hpp"

namespace fhmip {

Node::Node(Simulation& sim, NodeId id, std::string name)
    : sim_(sim), id_(id), name_(std::move(name)) {}

void Node::add_address(Address a, bool advertised) {
  if (!has_address(a)) addrs_.emplace_back(a, advertised);
}

void Node::remove_address(Address a) {
  std::erase_if(addrs_, [a](const auto& pr) { return pr.first == a; });
}

bool Node::has_address(Address a) const {
  return std::any_of(addrs_.begin(), addrs_.end(),
                     [a](const auto& pr) { return pr.first == a; });
}

Address Node::address() const {
  for (const auto& [a, adv] : addrs_)
    if (adv) return a;
  return addrs_.empty() ? kNoAddress : addrs_.front().first;
}

void Node::register_port(std::uint16_t port, PortHandler h) {
  ports_[port] = std::move(h);
}

void Node::unregister_port(std::uint16_t port) { ports_.erase(port); }

Node::ControlHandlerId Node::add_control_handler(ControlHandler h) {
  const ControlHandlerId id = next_control_handler_id_++;
  control_handlers_.emplace_back(id, std::move(h));
  return id;
}

void Node::remove_control_handler(ControlHandlerId id) {
  std::erase_if(control_handlers_,
                [id](const auto& pr) { return pr.first == id; });
}

void Node::receive(PacketPtr p) {
  if (has_address(p->dst)) {
    if (p->tunneled()) {
      // Tunnel endpoint: strip the outer header and re-admit the inner
      // packet (it may be for us — e.g. a care-of address — or in transit).
      p->decapsulate();
      receive(std::move(p));
      return;
    }
    deliver_local(std::move(p));
    return;
  }
  forward(std::move(p), /*decrement_ttl=*/true);
}

void Node::send(PacketPtr p) {
  if (has_address(p->dst) && !p->tunneled()) {
    deliver_local(std::move(p));
    return;
  }
  forward(std::move(p), /*decrement_ttl=*/false);
}

void Node::forward(PacketPtr p, bool decrement_ttl) {
  if (decrement_ttl) {
    if (p->ttl == 0) {
      drop(std::move(p), DropReason::kTtlExpired);
      return;
    }
    --p->ttl;
  }
  const Route* r = routes_.lookup(p->dst);
  if (r == nullptr || !r->valid()) {
    drop(std::move(p), DropReason::kNoRoute);
    return;
  }
  ++forwarded_;
  if (sim_.trace().enabled()) {
    sim_.trace().emit(
        trace_event(sim_.now(), TraceKind::kForward, name_.c_str(), *p));
  }
  if (r->link != nullptr) {
    r->link->transmit(std::move(p));
  } else {
    r->handler(std::move(p));
  }
}

void Node::deliver_local(PacketPtr p) {
  ++received_local_;
  // Snapshot the trace fields up front: a claiming control handler moves
  // the packet away, and the consumption event must only fire once we know
  // the packet actually terminated here (a portless data packet drops as
  // kNoRoute instead — it must not also count as delivered).
  const bool traced = sim_.trace().enabled();
  TraceEvent e;
  if (traced) {
    e = trace_event(sim_.now(), TraceKind::kLocalDeliver, name_.c_str(), *p);
  }
  if (p->is_control()) {
    // Index loop: a handler may register another handler while we iterate
    // (agent construction from a callback), which invalidates iterators.
    for (std::size_t i = 0; i < control_handlers_.size(); ++i) {
      if (control_handlers_[i].second(p)) {
        if (traced) sim_.trace().emit(e);
        return;
      }
    }
    // Unclaimed control message: harmless (e.g. advertisement nobody
    // listens to), but the ledger still needs a terminal event — recorded
    // as kDiscard since control is flow-less and carries no drop reason.
    ++discarded_;
    if (traced) {
      e.kind = TraceKind::kDiscard;
      sim_.trace().emit(e);
    }
    // The kDiscard emit above is the terminal event; the packet dies in
    // place (the snapshot `e`, not the packet, is what's traced).
    return;  // NOLINT-FHMIP(FLOW-01)
  }
  auto it = ports_.find(p->dst_port);
  if (it != ports_.end()) {
    if (traced) sim_.trace().emit(e);
    it->second(std::move(p));
    return;
  }
  drop(std::move(p), DropReason::kNoRoute);
}

void Node::drop(PacketPtr p, DropReason reason) {
  sim_.drop(std::move(p), reason, name_.c_str());
}

}  // namespace fhmip
