#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "buffer/buffer_manager.hpp"
#include "buffer/policy.hpp"
#include "buffer/rate_estimator.hpp"
#include "fastho/messages.hpp"
#include "fastho/reliability.hpp"
#include "net/node.hpp"
#include "wireless/access_point.hpp"

namespace fhmip {

/// Access Router agent implementing both sides of the Fast Handover
/// protocol with the thesis's enhanced buffer management:
///
///  * PAR role — answers RtSolPr(+BI), negotiates buffer space with the NAR
///    over HI(+BR)/HAck(+BA), redirects PCoA traffic after the FBU according
///    to the Table 3.3 policy, buffers its share, and releases on BF.
///  * NAR role — allocates the requested buffer, installs a host route for
///    the PCoA, buffers tunneled packets while the MH is detached, signals
///    Buffer Full (Case 1.b, bouncing the overflowing packet back for
///    PAR-side buffering), and drains on FNA+BF.
///  * Intra-AR role — §3.2.2.4 buffering across pure link-layer handoffs,
///    and the standalone BI/BA/BF smooth-handover baseline (§2.4).
///
/// Control-plane reliability: the HI is the only exchange this agent
/// originates; it is retransmitted with exponential backoff until the HAck
/// arrives or the retry cap is hit, at which point the PAR reports an empty
/// grant (the host falls back to the reactive path and no orphaned NAR
/// allocation exists, since allocation happens on HI receipt). Sequenced
/// control messages (RtSolPr, HI, FBU, FNA) are deduplicated per context so
/// a retransmission can only re-elicit the cached answer, never redo side
/// effects such as buffer allocation.
///
/// Counters are exposed for tests and benches.
class ArAgent : public ArAttachListener {
 public:
  struct Counters {
    std::uint64_t rtsolpr = 0;
    std::uint64_t hi_sent = 0, hi_received = 0;
    std::uint64_t hack_sent = 0, hack_received = 0;
    std::uint64_t prrtadv_sent = 0;
    std::uint64_t fbu = 0, fback_sent = 0;
    std::uint64_t fna = 0, bf_sent = 0, bf_received = 0;
    std::uint64_t fna_ack_sent = 0;
    std::uint64_t buffer_full_sent = 0, buffer_full_received = 0;
    std::uint64_t bounced = 0;
    std::uint64_t redirected = 0;
    std::uint64_t buffered_local = 0;   // stored in this AR's buffers
    std::uint64_t drained = 0;          // released toward the MH
    std::uint64_t delivered_wireless = 0;
    std::uint64_t intra_handoffs = 0;
    // Reliability layer.
    std::uint64_t hi_rtx = 0;           // HI resends
    std::uint64_t hi_exhausted = 0;     // negotiations given up
    std::uint64_t dup_rtsolpr = 0;      // deduplicated retransmissions
    std::uint64_t dup_hi = 0;
    std::uint64_t dup_hack = 0;
    std::uint64_t dup_fbu = 0;
    std::uint64_t dup_fna = 0;
    std::uint64_t crashes = 0;          // fault_reset() invocations
  };

  ArAgent(Node& node, BufferSchemeConfig cfg, RetransmitPolicy rtx = {});
  ~ArAgent() override;

  ArAgent(const ArAgent&) = delete;
  ArAgent& operator=(const ArAgent&) = delete;

  // ArAttachListener (wired to the WLAN layer).
  void on_mh_attached(MhId mh, NodeId ap, SimplexLink& downlink) override;
  void on_mh_detached(MhId mh) override;

  /// Crash/restart fault model: the agent process loses every in-memory
  /// handover context — negotiated grants, host routes, pending timers, and
  /// all buffered packets (accounted as kFaultInjected drops). Link-layer
  /// attachment state survives (the access points re-sync associations on
  /// restart), so plain delivery to attached hosts keeps working.
  void fault_reset();

  Node& node() { return node_; }
  Address address() const { return node_.address(); }
  std::uint32_t prefix() const { return node_.address().net; }
  BufferManager& buffers() { return buffers_; }
  /// Downstream rate estimate for an attached host (adaptive allocation).
  double estimated_pps(MhId mh) const;
  const Counters& counters() const { return counters_; }
  const BufferSchemeConfig& config() const { return cfg_; }
  bool has_par_context(MhId mh) const {
    const Host* h = find_host(mh);
    return h != nullptr && h->par;
  }
  bool has_nar_context(MhId mh) const {
    const Host* h = find_host(mh);
    return h != nullptr && h->nar;
  }

 private:
  // What the drain chain and the teardown need of any role's context.
  struct ContextBase {
    MhId mh = kNoNode;
    std::uint32_t grant = 0;   // local lease size (0 = none)
    bool draining = false;
    EventId start_timer = kInvalidEvent;  // never armed by the NAR role
    EventId lifetime_timer = kInvalidEvent;
  };
  // The last PrRtAdv answered to a solicitation, re-sent on a duplicate.
  struct CachedAdv {
    PrRtAdvMsg msg;
    bool sent = false;
  };
  struct ParContext : ContextBase {
    Address pcoa;
    Address nar_addr;
    std::uint32_t nar_grant = 0;   // what the NAR granted via HAck+BA
    bool nar_rejected = false;     // HI negotiation exhausted
    bool hack_received = false;
    bool redirecting = false;
    bool nar_full = false;         // Buffer Full received from the NAR
    bool bf_received = false;      // NAR released; stop buffering
    BufferRequest request;
    SimTime lease_deadline;        // reaper backstop for local allocations
    // Reliability: the solicitation transaction this context answers, the
    // cached HI for retransmission, and the cached advertisement for
    // duplicate solicitations.
    CtrlSeq rtsolpr_seq = kNoCtrlSeq;
    CtrlSeq last_fbu_seq = kNoCtrlSeq;
    HiMsg hi_msg;
    CachedAdv adv;
    bool hi_exhausted = false;
    EventId hi_timer = kInvalidEvent;
    std::uint32_t hi_sends = 0;
  };
  struct NarContext : ContextBase {
    Address pcoa;
    Address par_addr;
    bool mh_here = false;  // FNA received / attach seen
    bool full_signalled = false;
    // Reliability: the HI transaction that built this context, with the
    // cached HAck a duplicate HI re-elicits (no re-allocation).
    CtrlSeq hi_seq = kNoCtrlSeq;
    CtrlSeq last_fna_seq = kNoCtrlSeq;
    HackMsg hack_msg;
  };
  struct IntraContext : ContextBase {
    bool buffering = false;
    Address forward_to;  // standalone-BF forwarding target (baseline mode)
    CtrlSeq rtsolpr_seq = kNoCtrlSeq;
    CtrlSeq last_fbu_seq = kNoCtrlSeq;
    CtrlSeq last_fna_seq = kNoCtrlSeq;
    CachedAdv adv;
  };
  // Everything this router knows about one host, in whichever roles it
  // plays for it. The record lives while the host is attached, holds a
  // context or has rate history, and no longer.
  struct Host {
    std::unique_ptr<ParContext> par;
    std::unique_ptr<NarContext> nar;
    std::unique_ptr<IntraContext> intra;
    SimplexLink* downlink = nullptr;  // attached when non-null
    RateEstimator rate;               // downstream rate, kept on detach

    ContextBase* context(ArRole role) const {
      if (role == ArRole::kPar) return par.get();
      if (role == ArRole::kNar) return nar.get();
      return intra.get();
    }
    bool idle() const {
      return !par && !nar && !intra && downlink == nullptr &&
             rate.total_packets() == 0;
    }
  };
  using HostTable = std::map<MhId, Host>;

  const Host* find_host(MhId mh) const;
  Host* find_host(MhId mh) {
    return const_cast<Host*>(std::as_const(*this).find_host(mh));
  }
  // Erases the record once nothing keeps it alive.
  void forget_if_idle(HostTable::iterator it);

  // Control-plane handlers.
  bool handle_control(PacketPtr& p);
  void on_rtsolpr(const RtSolPrMsg& m, Address src);
  void on_hi(const HiMsg& m);
  void on_hack(const HackMsg& m);
  void on_fbu(const FbuMsg& m);
  void on_fna(const FnaMsg& m, Address src);
  void on_bf(const BfMsg& m);
  void on_buffer_full(const BufferFullMsg& m);
  void on_bi(const BiMsg& m);
  // False for a retransmission of the last sequenced message `last`
  // recorded; otherwise records `seq` as the last one.
  static bool fresh(CtrlSeq& last, CtrlSeq seq);
  void send_fback(const ParContext& ctx, CtrlSeq seq, bool from_new_link);
  void send_adv(const CachedAdv& adv, Address to);
  void record_grant(MhId mh, std::uint32_t granted, std::uint32_t requested);
  // Appends a handover-timeline record observed at this router, now.
  void record(MhId mh, obs::HoEventKind kind);
  void hi_timeout(MhId mh);

  // Data plane.
  void handle_subnet_packet(PacketPtr p);
  void par_redirect(ParContext& ctx, PacketPtr p);
  void par_buffer_local(ParContext& ctx, PacketPtr p);
  void nar_handle(Host& h, PacketPtr p);
  void nar_buffer(NarContext& ctx, PacketPtr p);
  bool park(HandoffBuffer* buf, PacketPtr& p);
  void count_buffered();
  void deliver(Host& h, PacketPtr p);
  void tunnel_to(Address ar, ForwardDirective d, PacketPtr p);
  void drop(PacketPtr p, DropReason reason);

  // Buffer release (§3.2.2.3), paced by cfg_.drain_gap. drain() is
  // idempotent (a live chain is never doubled by a duplicate FNA/BF);
  // drain_step() self-reschedules while packets remain.
  void drain(ContextBase& ctx, ArRole role);
  void drain_step(MhId mh, ArRole role);

  void teardown(MhId mh, ArRole role,
                DropReason reason = DropReason::kBufferExpired);
  // Tears down every context role-major: all PAR contexts, then all NAR,
  // then all intra-AR, each in MhId order (the order of their drops).
  void teardown_all(DropReason reason);

  void send_control(Address dst, MessageVariant m,
                    std::uint32_t bytes = kCtrlMsgBytes);

  Node& node_;
  Node::ControlHandlerId ctrl_id_ = 0;
  BufferSchemeConfig cfg_;
  RetransmitPolicy rtx_;
  BufferManager buffers_;
  // Registry-owned metric series, resolved once at construction (O(1)
  // increments on the forwarding path).
  obs::Counter* m_buffered_ = nullptr;
  obs::Counter* m_drained_ = nullptr;
  obs::Counter* m_crashes_ = nullptr;
  HostTable hosts_;
  CtrlSeq next_seq_ = 0;
  Counters counters_;
};

}  // namespace fhmip
