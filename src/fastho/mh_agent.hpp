#pragma once

#include <cstdint>

#include "buffer/policy.hpp"
#include "fastho/messages.hpp"
#include "fastho/reliability.hpp"
#include "mip/mobile_ip.hpp"
#include "net/node.hpp"
#include "obs/timeline.hpp"
#include "stats/handover_outcomes.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {

/// Mobile-host protocol agent: drives the Fast Handover choreography from
/// the MH side (Figure 3.2) in response to link-layer events:
///
///   L2-ST            → RtSolPr+BI to the PAR (anticipation)
///   PrRtAdv          → form the NCoA, note the buffer grants
///   radio about down → FBU (starts packet redirection)
///   attach at NAR    → FNA+BF, then HMIPv6 binding update to the MAP
///
/// Also handles the §3.2.2.4 intra-AR (pure link-layer) handoff and the
/// non-anticipated path (FBU from the new link).
///
/// Control-plane reliability: every message the MH originates (RtSolPr+BI,
/// FBU, FNA+BF) carries a transaction sequence number and is retransmitted
/// with exponential backoff until acknowledged (PrRtAdv, FBack, FNAAck) or
/// the retry cap is hit. Exhaustion degrades gracefully: a missing PrRtAdv
/// abandons anticipation, an unconfirmed FBU is reissued from the new link
/// (the reactive path, §2.3.2), and only an unacknowledged reactive FBU
/// marks the attempt failed. Each attempt's outcome and cause are resolved
/// on the simulation's HandoverTimeline, which stores it.
class MhAgent : public L2Callbacks {
 public:
  struct Config {
    BufferSchemeConfig scheme;
    bool use_fast_handover = true;
    /// Piggyback BI on RtSolPr (the thesis's enhancement; false = plain
    /// Fast Handover signaling).
    bool request_buffers = true;
    /// React to L2-ST triggers; false exercises the non-anticipated path
    /// (the FBU goes via the new link after attachment, §2.3.2).
    bool anticipate = true;
    /// §3.1.1's alternative scheme: on anticipation, add the prospective
    /// NCoA as a secondary (bicast) binding at the MAP instead of / in
    /// addition to buffering. Kept as a comparison baseline — a
    /// single-radio host cannot hear the second cell, which is the
    /// thesis's argument for buffering.
    bool simultaneous_binding = false;
    /// BI start_time = trigger time + this offset; zero disables the
    /// fast-mover safety valve.
    SimTime start_time_offset;
    /// Control-message retransmission/backoff (rtx.enabled = false
    /// restores fire-and-forget signaling).
    RetransmitPolicy rtx;
    /// Per-attempt liveness deadline (zero = disabled). Armed when an
    /// inter-AR attempt starts (L2 trigger / predisconnect / detach) and
    /// disarmed at resolution; if it fires, the wedged choreography is torn
    /// down and the attempt recorded as kFailed/kWatchdog — after one legal
    /// reactive retry (§2.3.2) when the host is attached with an
    /// unconfirmed predictive FBU. Must cover the whole attempt: the
    /// anticipation window plus the blackout plus the FNA exchange.
    SimTime watchdog;
  };

  struct Counters {
    std::uint32_t l2_triggers = 0;
    std::uint32_t rtsolpr_sent = 0;
    std::uint32_t prrtadv_received = 0;
    std::uint32_t fbu_sent = 0;
    std::uint32_t fback_received = 0;
    std::uint32_t fna_sent = 0;
    std::uint32_t handoffs = 0;        // attach events after the first
    std::uint32_t intra_handoffs = 0;
    std::uint32_t non_anticipated = 0;
    // Reliability layer.
    std::uint32_t rtsolpr_rtx = 0;     // RtSolPr resends
    std::uint32_t fbu_rtx = 0;         // FBU resends (old or new link)
    std::uint32_t fna_rtx = 0;         // FNA resends
    std::uint32_t rtsolpr_exhausted = 0;  // anticipation abandoned
    std::uint32_t fbu_exhausted = 0;      // reactive FBU unacknowledged
    std::uint32_t reactive_fbu = 0;    // FBU reissued from the new link
                                       // after an unconfirmed predictive one
    std::uint32_t watchdog_fired = 0;  // liveness deadline expiries
    std::uint32_t watchdog_failed = 0; // attempts it resolved kFailed
  };

  MhAgent(Node& node, Config cfg, MobileIpClient* mip);
  ~MhAgent() override;

  MhAgent(const MhAgent&) = delete;
  MhAgent& operator=(const MhAgent&) = delete;

  // L2Callbacks.
  void on_l2_trigger(NodeId target_ap, Node& target_ar) override;
  void on_predisconnect(NodeId target_ap, Node& target_ar) override;
  void on_attached(NodeId ap, Node& ar) override;
  void on_detached() override;

  Node& node() { return node_; }
  MhId id() const { return node_.id(); }
  Address pcoa() const { return pcoa_; }
  Address current_ar_addr() const { return current_ar_addr_; }
  const Counters& counters() const { return counters_; }
  const BufferGrant& last_grant() const { return last_grant_; }

  /// Smooth-handover baseline (§2.4): standalone BI to the current AR.
  void send_buffer_init(std::uint32_t size_pkts, SimTime start_time,
                        SimTime lifetime);
  /// Baseline release: BF to `to_ar` (usually the previous AR) with an
  /// optional forwarding target for the buffered packets.
  void send_buffer_forward(Address to_ar, Address forward_to = kNoAddress);

 private:
  /// Which FBU copy the retransmission timer currently guards.
  enum class FbuPhase : std::uint8_t {
    kIdle,
    kOldLink,  // predictive FBU, resent on the old link while it is up
    kVerify,   // attached at the NAR, waiting for the (drained) FBack
    kNewLink,  // reactive FBU from the new link (§2.3.2)
  };

  bool handle_control(PacketPtr& p);
  void on_prrtadv(const PrRtAdvMsg& m);
  void on_fback(const FbackMsg& m);
  void send_rtsolpr(NodeId target_ap);
  void rtsolpr_timeout();
  void send_fbu(Address to, Address nar_addr, bool from_new_link);
  void send_reactive_fbu();
  void fbu_timeout();
  void send_fna(Address src, Address dst);
  void fna_timeout();
  void arm(EventId& timer, std::uint32_t attempt, void (MhAgent::*fn)());
  void cancel_timers();
  /// Starts the liveness deadline for the in-flight inter-AR attempt
  /// (no-op when disabled, already armed, or the attempt is intra-AR).
  void arm_watchdog();
  void disarm_watchdog();
  void watchdog_fired();
  /// Records the current attempt's outcome (no-op when already resolved).
  void resolve_outcome(HandoverOutcome outcome, HandoverCause cause);
  /// Lands a handover-timeline record for this MH at the current sim time.
  void mark(obs::HoEventKind kind);

  Node& node_;
  Node::ControlHandlerId ctrl_id_ = 0;
  Config cfg_;
  MobileIpClient* mip_;

  Address current_ar_addr_;  // AR we are (were) attached to
  Address pcoa_;             // care-of address on the current subnet
  bool first_attach_done_ = false;

  // Handoff-in-progress state.
  NodeId target_ap_ = kNoNode;
  Address target_ar_addr_;
  bool anticipated_ = false;      // RtSolPr sent for the current target
  bool prrtadv_received_ = false;
  bool fbu_sent_on_old_link_ = false;
  bool intra_pending_ = false;
  BufferGrant last_grant_;

  // Reliability layer state.
  CtrlSeq next_seq_ = 0;
  RtSolPrMsg pending_rtsolpr_;
  EventId rtsolpr_timer_ = kInvalidEvent;
  std::uint32_t rtsolpr_sends_ = 0;
  bool prrtadv_timed_out_ = false;

  FbuMsg pending_fbu_;
  Address fbu_src_;
  Address fbu_dst_;
  FbuPhase fbu_phase_ = FbuPhase::kIdle;
  EventId fbu_timer_ = kInvalidEvent;
  std::uint32_t fbu_sends_ = 0;
  CtrlSeq fbu_old_seq_ = kNoCtrlSeq;  // predictive FBU (old link)
  CtrlSeq fbu_new_seq_ = kNoCtrlSeq;  // reactive FBU (new link)
  bool fback_received_ = false;       // FBack seen for the current attempt

  FnaMsg pending_fna_;
  Address fna_src_;
  Address fna_dst_;
  EventId fna_timer_ = kInvalidEvent;
  std::uint32_t fna_sends_ = 0;

  // Liveness watchdog state.
  EventId watchdog_timer_ = kInvalidEvent;
  bool link_up_ = false;           // radio currently attached to an AP
  bool watchdog_rearmed_ = false;  // the one reactive retry was spent

  // Outcome bookkeeping for the in-flight inter-AR attempt.
  bool outcome_pending_ = false;
  HandoverCause pending_cause_ = HandoverCause::kNone;

  Counters counters_;
};

}  // namespace fhmip
