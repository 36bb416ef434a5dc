#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/address.hpp"
#include "net/messages.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace fhmip {

/// IPv6 traffic-class values as defined by the thesis (Table 3.1).
enum class TrafficClass : std::uint8_t {
  kUnspecified = 0,   // treated as best effort
  kRealTime = 1,
  kHighPriority = 2,
  kBestEffort = 3,
};

const char* to_string(TrafficClass c);

/// Returns the class used for buffering decisions: kUnspecified maps to
/// kBestEffort (Table 3.1, value 0).
TrafficClass effective_class(TrafficClass c);

/// How a packet redirected through the PAR→NAR tunnel should be handled at
/// the receiving router while the MH is detached (Table 3.3 outcomes).
enum class ForwardDirective : std::uint8_t {
  kNone = 0,       // normal forwarding
  kBufferAtNar,    // buffer at the NAR if the MH is not attached yet
  kForwardOnly,    // deliver if attached, otherwise the packet is lost
  kBounceToPar,    // NAR buffer full: send back for PAR-side buffering
  kDrain,          // buffered packet being released after BF
};

inline constexpr std::uint32_t kIpHeaderBytes = 40;  // per tunnel layer

/// The per-packet tunnel stack (inner destinations, outermost last) with
/// inline storage for the depths the protocol actually produces: MAP
/// encapsulation plus the PAR→NAR inter-AR tunnel is depth 2, bicast clones
/// add no extra layer, so four inline slots cover every choreography with
/// headroom. Deeper stacks (none today) spill to a heap vector so behaviour
/// is depth-independent — but the common path never touches the allocator,
/// which is what makes encap/decap copy-free on pooled packets.
class TunnelStack {
 public:
  static constexpr std::size_t kInlineDepth = 4;

  TunnelStack() = default;
  TunnelStack(const TunnelStack& o);
  TunnelStack& operator=(const TunnelStack& o);
  TunnelStack(TunnelStack&& o) noexcept;
  TunnelStack& operator=(TunnelStack&& o) noexcept;
  ~TunnelStack() = default;

  bool empty() const { return depth_ == 0; }
  std::size_t size() const { return depth_; }

  void push(Address a) {
    if (depth_ < kInlineDepth) {
      inline_[depth_] = a;
    } else {
      push_spill(a);
    }
    ++depth_;
  }

  /// Top of the stack (the innermost pending destination). Pre: !empty().
  Address back() const {
    return depth_ <= kInlineDepth ? inline_[depth_ - 1]
                                  : (*spill_)[depth_ - kInlineDepth - 1];
  }

  /// Pre: !empty().
  void pop() {
    if (depth_ > kInlineDepth) spill_->pop_back();
    --depth_;
  }

  /// Bottom-up indexing (0 = outermost pushed first). Pre: i < size().
  Address operator[](std::size_t i) const {
    return i < kInlineDepth ? inline_[i] : (*spill_)[i - kInlineDepth];
  }

  friend bool operator==(const TunnelStack& a, const TunnelStack& b) {
    if (a.depth_ != b.depth_) return false;
    for (std::size_t i = 0; i < a.depth_; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }

 private:
  void push_spill(Address a);  // cold: depth beyond the inline slots

  std::uint32_t depth_ = 0;
  std::array<Address, kInlineDepth> inline_{};
  std::unique_ptr<std::vector<Address>> spill_;
};

/// The payload of a simulated packet — everything that describes the packet
/// on the wire. Split from `Packet` so that moving/cloning a packet's
/// contents can never disturb the pool-identity fields below: a pooled
/// packet keeps its slab slot for life, whatever is assigned into it.
struct PacketFields {
  std::uint64_t uid = 0;
  Address src;
  Address dst;
  std::uint32_t size_bytes = 0;
  std::uint8_t ttl = 64;
  TrafficClass tclass = TrafficClass::kUnspecified;
  FlowId flow = kNoFlow;
  std::uint32_t seq = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  SimTime created_at;
  ForwardDirective directive = ForwardDirective::kNone;
  TunnelStack tunnel_stack;  // inner destinations, outermost last
  MessageVariant msg;
};

class PacketPool;

/// A simulated packet. Packets are move-only and owned by exactly one
/// entity (link, queue, buffer, or agent) at a time; ownership is carried
/// by `PacketPtr`, whose deleter returns pooled packets to their slab.
struct Packet : PacketFields {
  Packet() = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  /// Moves transfer the payload only; pool identity stays with each object.
  Packet(Packet&& o) noexcept
      : PacketFields(std::move(static_cast<PacketFields&>(o))) {}
  Packet& operator=(Packet&& o) noexcept {
    PacketFields::operator=(std::move(static_cast<PacketFields&>(o)));
    return *this;
  }

  bool is_control() const { return fhmip::is_control(msg); }
  bool tunneled() const { return !tunnel_stack.empty(); }

  /// IP-in-IP encapsulation: the packet is readdressed to `outer` and the
  /// original destination pushed on the tunnel stack (+40 B header).
  void encapsulate(Address outer);

  /// Pops one tunnel layer, restoring the inner destination (-40 B header).
  /// Precondition: tunneled().
  void decapsulate();

  /// Deep copy with a fresh uid (used e.g. for FBAck sent to two receivers
  /// and MAP bicast). `new_uid` must differ from this packet's uid — a
  /// clone that shares a uid would corrupt ledger conservation (audited).
  /// Pooled packets clone from their own pool; detached packets from the
  /// heap.
  std::unique_ptr<Packet, struct PacketDeleter> clone(
      std::uint64_t new_uid) const;

  // -- pool identity (owned by PacketPool; meaningless on heap packets) --
  PacketPool* pool_home = nullptr;  // null: heap-allocated, deleter deletes
  std::uint32_t pool_slot = 0;      // slab index within pool_home
  /// Intrusive link shared by the pool free list and the intrusive packet
  /// queues (DropTailQueue / HandoffBuffer): a packet is on at most one of
  /// those chains at any time, and never while owned through a PacketPtr.
  Packet* pool_next = nullptr;
  /// While the packet is on a link's in-flight FIFO: its delivery time and
  /// the issue sequence number it reserved when it started serializing. The
  /// link arms its one delivery timer from the FIFO head's pair.
  SimTime fly_at;
  std::uint64_t fly_seq = 0;
};

/// PacketPtr's deleter: pooled packets go back to their slab (slot recycled,
/// generation bumped), heap packets are deleted. Stateless, so a PacketPtr
/// can be rebuilt from a raw pointer after an intrusive-queue traversal.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

class Simulation;

/// The one builder of a packet's trace event. Inline so the per-hop sites
/// (transmit, deliver, forward, local delivery) call nothing out of line
/// behind their `trace().enabled()` test.
inline TraceEvent trace_event(SimTime at, TraceKind kind, const char* where,
                              const Packet& p) {
  TraceEvent e;
  e.at = at;
  e.kind = kind;
  e.where = where;
  e.uid = p.uid;
  e.flow = p.flow;
  e.seq = p.seq;
  e.bytes = p.size_bytes;
  e.msg = message_name(p.msg);
  return e;
}

/// Emits a packet-level trace event through the simulation's trace hub
/// (no-op without sinks). Shared by the creation and buffer sites so the
/// packet ledger sees a complete event stream; deaths go through
/// Simulation::drop.
void trace_packet(Simulation& sim, TraceKind kind, const char* where,
                  const Packet& p);

/// Convenience factory: acquires a packet from the simulation's pool and
/// stamps uid and creation time. uid order is identical to the historical
/// heap factory, so traces and ledgers are unchanged by pooling.
PacketPtr make_packet(Simulation& sim, Address src, Address dst,
                      std::uint32_t size_bytes);

/// Control-message factory: small packet carrying `msg`.
PacketPtr make_control(Simulation& sim, Address src, Address dst,
                       MessageVariant msg, std::uint32_t size_bytes = 64);

}  // namespace fhmip
