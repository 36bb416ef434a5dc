#include "net/packet.hpp"

#include <cassert>
#include <string>

#include "net/packet_pool.hpp"
#include "sim/check.hpp"
#include "sim/simulation.hpp"

namespace fhmip {

bool is_control(const MessageVariant& m) {
  return !std::holds_alternative<std::monostate>(m) &&
         !std::holds_alternative<TcpSegMsg>(m);
}

const char* message_name(const MessageVariant& m) {
  struct Visitor {
    const char* operator()(std::monostate) const { return "data"; }
    const char* operator()(const RouterAdvMsg&) const { return "RtAdv"; }
    const char* operator()(const RtSolPrMsg&) const { return "RtSolPr"; }
    const char* operator()(const PrRtAdvMsg&) const { return "PrRtAdv"; }
    const char* operator()(const HiMsg&) const { return "HI"; }
    const char* operator()(const HackMsg&) const { return "HAck"; }
    const char* operator()(const FbuMsg&) const { return "FBU"; }
    const char* operator()(const FbackMsg&) const { return "FBAck"; }
    const char* operator()(const FnaMsg&) const { return "FNA"; }
    const char* operator()(const FnaAckMsg&) const { return "FNAAck"; }
    const char* operator()(const BfMsg&) const { return "BF"; }
    const char* operator()(const BufferFullMsg&) const { return "BufferFull"; }
    const char* operator()(const BiMsg&) const { return "BI"; }
    const char* operator()(const BaMsg&) const { return "BA"; }
    const char* operator()(const BindingUpdateMsg&) const { return "BU"; }
    const char* operator()(const BindingAckMsg&) const { return "BAck"; }
    const char* operator()(const TcpSegMsg&) const { return "TCP"; }
  };
  return std::visit(Visitor{}, m);
}

const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kUnspecified:
      return "unspecified";
    case TrafficClass::kRealTime:
      return "real-time";
    case TrafficClass::kHighPriority:
      return "high-priority";
    case TrafficClass::kBestEffort:
      return "best-effort";
  }
  return "?";
}

TrafficClass effective_class(TrafficClass c) {
  return c == TrafficClass::kUnspecified ? TrafficClass::kBestEffort : c;
}

TunnelStack::TunnelStack(const TunnelStack& o)
    : depth_(o.depth_), inline_(o.inline_) {
  if (o.spill_ != nullptr) spill_ = std::make_unique<std::vector<Address>>(*o.spill_);
}

TunnelStack& TunnelStack::operator=(const TunnelStack& o) {
  if (this == &o) return *this;
  depth_ = o.depth_;
  inline_ = o.inline_;
  spill_ = o.spill_ != nullptr
               ? std::make_unique<std::vector<Address>>(*o.spill_)
               : nullptr;
  return *this;
}

TunnelStack::TunnelStack(TunnelStack&& o) noexcept
    : depth_(o.depth_), inline_(o.inline_), spill_(std::move(o.spill_)) {
  o.depth_ = 0;
}

TunnelStack& TunnelStack::operator=(TunnelStack&& o) noexcept {
  if (this == &o) return *this;
  depth_ = o.depth_;
  inline_ = o.inline_;
  spill_ = std::move(o.spill_);
  o.depth_ = 0;
  return *this;
}

void TunnelStack::push_spill(Address a) {
  // Cold overflow: FHMIP nests at most the MAP tunnel inside the PAR→NAR
  // tunnel (depth 2), so the 4-slot inline array absorbs every real
  // topology and this allocation only fires in adversarial unit tests.
  if (spill_ == nullptr)
    spill_ = std::make_unique<std::vector<Address>>();  // NOLINT-FHMIP(PERF-01)
  spill_->push_back(a);
}

void Packet::encapsulate(Address outer) {
  tunnel_stack.push(dst);
  dst = outer;
  size_bytes += kIpHeaderBytes;
}

void Packet::decapsulate() {
  assert(!tunnel_stack.empty());
  dst = tunnel_stack.back();
  tunnel_stack.pop();
  size_bytes -= kIpHeaderBytes;
}

PacketPtr Packet::clone(std::uint64_t new_uid) const {
  // A clone with a recycled or zero uid would alias an existing packet in
  // the ledger/trace stream: conservation would double-count one uid and
  // lose the other. Callers must stamp a fresh sim.next_uid().
  FHMIP_AUDIT_MSG("net", new_uid != 0 && new_uid != uid,
                  "clone uid " + std::to_string(new_uid) +
                      " not fresh (source uid " + std::to_string(uid) + ")");
  // Poolless sources (standalone test packets) clone to the heap; the
  // deleter branches on pool_home, so both flavours free correctly.
  PacketPtr p =
      pool_home != nullptr ? pool_home->acquire()
                           : PacketPtr(new Packet);  // NOLINT-FHMIP(raw-new-delete)
  static_cast<PacketFields&>(*p) = static_cast<const PacketFields&>(*this);
  p->uid = new_uid;
  return p;
}

void trace_packet(Simulation& sim, TraceKind kind, const char* where,
                  const Packet& p) {
  if (!sim.trace().enabled()) return;
  sim.trace().emit(trace_event(sim.now(), kind, where, p));
}

PacketPtr make_packet(Simulation& sim, Address src, Address dst,
                      std::uint32_t size_bytes) {
  PacketPtr p = sim.packet_pool().acquire();
  p->uid = sim.next_uid();
  p->src = src;
  p->dst = dst;
  p->size_bytes = size_bytes;
  p->created_at = sim.now();
  // No kCreate here: flow/seq/msg are stamped by the caller, so the
  // creation trace is emitted by the transports (udp/tcp), make_control,
  // and the bicast clone site once the packet is fully described.
  return p;
}

PacketPtr make_control(Simulation& sim, Address src, Address dst,
                       MessageVariant msg, std::uint32_t size_bytes) {
  auto p = make_packet(sim, src, dst, size_bytes);
  p->msg = std::move(msg);
  trace_packet(sim, TraceKind::kCreate, "origin", *p);
  return p;
}

}  // namespace fhmip
