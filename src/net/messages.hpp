#pragma once

#include <cstdint>
#include <variant>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace fhmip {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;
/// A mobile host is identified by its node id in control messages (the
/// protocol equivalent is the link-layer address / home address pair).
using MhId = NodeId;

// ---------------------------------------------------------------------------
// Buffer management extension payloads (§3.2.2, piggybacked on Fast Handover
// messages per the thesis; also usable standalone as in the smooth-handover
// baseline, §2.4).
// ---------------------------------------------------------------------------

/// Buffer Initialization (BI) / Buffer Request (BR) contents: the mobile host
/// asks for `size_pkts` of buffer space. `start_time` is the safety valve for
/// fast-moving hosts (the PAR begins buffering then even without an FBU);
/// `lifetime` bounds how long the allocation may be held. Both zero = cancel.
struct BufferRequest {
  std::uint32_t size_pkts = 0;
  SimTime start_time;  // absolute; zero = no auto-start
  SimTime lifetime;    // relative; zero = cancel request
};

/// Buffer Acknowledgement (BA) contents: what each router actually granted.
struct BufferGrant {
  std::uint32_t nar_pkts = 0;
  std::uint32_t par_pkts = 0;
  bool nar_ok = false;
  bool par_ok = false;
};

// ---------------------------------------------------------------------------
// Router discovery / Fast Handover control messages (§2.3, §3.2).
// ---------------------------------------------------------------------------

/// Router Advertisement. `buffer_capable` is the "B" flag from the
/// smooth-handover baseline (§2.4 step I).
struct RouterAdvMsg {
  NodeId ar_node = kNoNode;
  Address ar_addr;
  std::uint32_t prefix = 0;
  bool buffer_capable = false;
};

/// Control-message transaction sequence number. A sender stamps a fresh
/// value on each new exchange and reuses it verbatim on retransmissions;
/// receivers treat an already-seen sequence idempotently (resend the cached
/// answer, never redo side effects). 0 means "unsequenced" (legacy senders).
using CtrlSeq = std::uint32_t;
inline constexpr CtrlSeq kNoCtrlSeq = 0;

/// RtSolPr (+ piggybacked BI when `has_bi`). The MH names the link-layer
/// target it anticipates attaching to (AP id), the PAR resolves it to an AR.
struct RtSolPrMsg {
  MhId mh = kNoNode;
  NodeId target_ap = kNoNode;
  BufferRequest bi;
  bool has_bi = false;
  CtrlSeq seq = kNoCtrlSeq;
};

/// PrRtAdv: NAR prefix information + result of the buffer negotiation.
struct PrRtAdvMsg {
  MhId mh = kNoNode;
  NodeId nar_node = kNoNode;
  Address nar_addr;
  std::uint32_t nar_prefix = 0;
  bool intra_ar = false;  // §3.2.2.4: pure link-layer handoff, same AR
  BufferGrant grant;
  CtrlSeq seq = kNoCtrlSeq;  // echoes the RtSolPr being answered
};

/// Handover Initiate (+ piggybacked Buffer Request when `has_br`).
struct HiMsg {
  MhId mh = kNoNode;
  Address pcoa;
  Address par_addr;
  BufferRequest br;
  bool has_br = false;
  CtrlSeq seq = kNoCtrlSeq;
};

/// Handover Acknowledge (+ piggybacked Buffer Ack).
struct HackMsg {
  MhId mh = kNoNode;
  std::uint32_t granted_pkts = 0;
  bool buffer_ok = false;
  CtrlSeq seq = kNoCtrlSeq;  // echoes the HI being answered
};

/// Fast Binding Update: start redirecting PCoA traffic through the tunnel.
struct FbuMsg {
  MhId mh = kNoNode;
  Address pcoa;
  Address nar_addr;            // where to tunnel (needed when no HI ran)
  bool from_new_link = false;  // non-anticipated handoff path
  CtrlSeq seq = kNoCtrlSeq;
};

struct FbackMsg {
  MhId mh = kNoNode;
  bool ok = false;
  CtrlSeq seq = kNoCtrlSeq;  // echoes the FBU being answered
};

/// Fast Neighbour Advertisement (+ piggybacked Buffer Forward when `has_bf`).
struct FnaMsg {
  MhId mh = kNoNode;
  bool has_bf = false;
  CtrlSeq seq = kNoCtrlSeq;
};

/// NAR → MH acknowledgement of an FNA (RFC 5568's NAACK option). Lets the
/// MH stop retransmitting the FNA+BF; a duplicate FNA is answered with a
/// fresh ack but no repeated side effects.
struct FnaAckMsg {
  MhId mh = kNoNode;
  CtrlSeq seq = kNoCtrlSeq;  // echoes the FNA being answered
};

/// Buffer Forward: release the buffer to the mobile host (§3.2.2.3). Sent
/// NAR→PAR on FNA+BF receipt; also MH→AR in the link-layer handoff case.
/// In the standalone smooth-handover baseline the MH sets `forward_to` to
/// its new care-of address and the buffered packets are tunneled there.
struct BfMsg {
  MhId mh = kNoNode;
  Address forward_to;
};

/// NAR→PAR notification that the NAR-side buffer filled up (Case 1.b: the
/// PAR buffers the rest of the high-priority packets).
struct BufferFullMsg {
  MhId mh = kNoNode;
};

// Standalone BI/BA (smooth-handover baseline mode, §2.4).
struct BiMsg {
  MhId mh = kNoNode;
  BufferRequest req;
};
struct BaMsg {
  MhId mh = kNoNode;
  bool ok = false;
  std::uint32_t granted_pkts = 0;
};

// ---------------------------------------------------------------------------
// HMIPv6 messages (§2.2).
// ---------------------------------------------------------------------------

/// MH → MAP binding update: regional address now maps to `lcoa`.
/// With `simultaneous` set the binding is added as a secondary care-of
/// address and traffic is bicast to every binding — the "simultaneous
/// binding" alternative of §3.1.1 (a non-simultaneous update clears any
/// secondary binding).
struct BindingUpdateMsg {
  MhId mh = kNoNode;
  Address regional;  // RCoA being bound
  Address lcoa;
  SimTime lifetime;
  bool simultaneous = false;
};

struct BindingAckMsg {
  MhId mh = kNoNode;
  bool accepted = false;
};

// ---------------------------------------------------------------------------
// Transport payloads.
// ---------------------------------------------------------------------------

/// TCP segment header (data and ACK share the struct; pure ACKs have len 0).
struct TcpSegMsg {
  std::uint32_t seq = 0;  // first byte of payload
  std::uint32_t ack = 0;  // next expected byte (valid when is_ack)
  std::uint32_t len = 0;  // payload bytes
  bool is_ack = false;
};

/// The message payload carried by a packet. `std::monostate` = plain data.
using MessageVariant =
    std::variant<std::monostate, RouterAdvMsg, RtSolPrMsg, PrRtAdvMsg, HiMsg,
                 HackMsg, FbuMsg, FbackMsg, FnaMsg, FnaAckMsg, BfMsg,
                 BufferFullMsg, BiMsg, BaMsg, BindingUpdateMsg, BindingAckMsg,
                 TcpSegMsg>;

/// True for protocol-control payloads (everything except plain data / TCP).
bool is_control(const MessageVariant& m);

/// Human-readable message-type name for traces.
const char* message_name(const MessageVariant& m);

}  // namespace fhmip
