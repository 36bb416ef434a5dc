#include "fastho/mh_agent.hpp"

#include "fastho/auth.hpp"
#include "sim/check.hpp"
#include "sim/simulation.hpp"

namespace fhmip {

using obs::HoEventKind;

MhAgent::MhAgent(Node& node, Config cfg, MobileIpClient* mip)
    : node_(node), cfg_(cfg), mip_(mip) {
  ctrl_id_ = node_.add_control_handler(
      [this](PacketPtr& p) { return handle_control(p); });
}

MhAgent::~MhAgent() {
  cancel_timers();
  node_.remove_control_handler(ctrl_id_);
}

void MhAgent::arm(EventId& timer, std::uint32_t attempt,
                  void (MhAgent::*fn)()) {
  if (timer != kInvalidEvent) node_.sim().cancel(timer);
  timer = node_.sim().in(cfg_.rtx.timeout_for(attempt),
                         [this, fn] { (this->*fn)(); });
}

void MhAgent::cancel_timers() {
  Simulation& sim = node_.sim();
  if (rtsolpr_timer_ != kInvalidEvent) sim.cancel(rtsolpr_timer_);
  if (fbu_timer_ != kInvalidEvent) sim.cancel(fbu_timer_);
  if (fna_timer_ != kInvalidEvent) sim.cancel(fna_timer_);
  if (watchdog_timer_ != kInvalidEvent) sim.cancel(watchdog_timer_);
  rtsolpr_timer_ = fbu_timer_ = fna_timer_ = watchdog_timer_ = kInvalidEvent;
  fbu_phase_ = FbuPhase::kIdle;
}

void MhAgent::arm_watchdog() {
  if (cfg_.watchdog.is_zero() || intra_pending_) return;
  if (watchdog_timer_ != kInvalidEvent) return;  // per-attempt, first wins
  watchdog_rearmed_ = false;
  watchdog_timer_ =
      node_.sim().in(cfg_.watchdog, [this] { watchdog_fired(); });
}

void MhAgent::disarm_watchdog() {
  if (watchdog_timer_ != kInvalidEvent) node_.sim().cancel(watchdog_timer_);
  watchdog_timer_ = kInvalidEvent;
  watchdog_rearmed_ = false;
}

void MhAgent::watchdog_fired() {
  watchdog_timer_ = kInvalidEvent;
  ++counters_.watchdog_fired;
  mark(HoEventKind::kWatchdogFired);
  // One legal self-repair before declaring failure: attached with an
  // unconfirmed predictive FBU and no reactive reissue in flight — re-enter
  // the §2.3.2 path and grant it a second deadline.
  if (!watchdog_rearmed_ && link_up_ && fbu_old_seq_ != kNoCtrlSeq &&
      !fback_received_ && fbu_new_seq_ == kNoCtrlSeq && outcome_pending_) {
    watchdog_rearmed_ = true;
    send_reactive_fbu();
    watchdog_timer_ =
        node_.sim().in(cfg_.watchdog, [this] { watchdog_fired(); });
    return;
  }
  // Wedged: no retransmission timer left that could make progress (or the
  // radio never came back). Tear the attempt down and record the typed
  // cause; the AR-side state follows via lifetime timers and the lease
  // reaper.
  ++counters_.watchdog_failed;
  cancel_timers();
  watchdog_rearmed_ = false;
  // Detach-and-vanish wedges never reach on_attached, so no outcome was
  // opened there — open it now; the attempt must close, never stay wedged.
  outcome_pending_ = true;
  resolve_outcome(HandoverOutcome::kFailed, HandoverCause::kWatchdog);
  anticipated_ = false;
  prrtadv_timed_out_ = false;
  fbu_sent_on_old_link_ = false;
  fbu_old_seq_ = fbu_new_seq_ = kNoCtrlSeq;
  target_ap_ = kNoNode;
}

void MhAgent::resolve_outcome(HandoverOutcome outcome, HandoverCause cause) {
  if (!outcome_pending_) return;
  outcome_pending_ = false;
  pending_cause_ = HandoverCause::kNone;
  disarm_watchdog();
  node_.sim().timeline().resolve(node_.sim().now(), id(), outcome, cause);
}

void MhAgent::mark(HoEventKind kind) {
  Simulation& sim = node_.sim();
  sim.timeline().record(sim.now(), id(), kind, node_.name());
}

bool MhAgent::handle_control(PacketPtr& p) {
  if (const auto* adv = std::get_if<PrRtAdvMsg>(&p->msg)) {
    if (adv->mh != id()) return false;
    on_prrtadv(*adv);
    return true;
  }
  if (const auto* fb = std::get_if<FbackMsg>(&p->msg)) {
    if (fb->mh != id()) return false;
    on_fback(*fb);
    return true;
  }
  if (const auto* ack = std::get_if<FnaAckMsg>(&p->msg)) {
    if (ack->mh != id()) return false;
    if (ack->seq == kNoCtrlSeq || ack->seq == pending_fna_.seq) {
      if (fna_timer_ != kInvalidEvent) node_.sim().cancel(fna_timer_);
      fna_timer_ = kInvalidEvent;
    }
    return true;
  }
  if (std::get_if<BaMsg>(&p->msg) != nullptr) {
    mark(HoEventKind::kBaRecv);
    return true;
  }
  if (std::get_if<RouterAdvMsg>(&p->msg) != nullptr) {
    // Movement detection input; anticipation is driven by L2 triggers in
    // this implementation, so advertisements are informational.
    return true;
  }
  return false;
}

void MhAgent::on_prrtadv(const PrRtAdvMsg& m) {
  // Answers the outstanding solicitation (or is a duplicate of one that
  // already did — both settle the retransmission timer). A stale echo for
  // an older transaction is ignored.
  if (m.seq != kNoCtrlSeq && pending_rtsolpr_.seq != kNoCtrlSeq &&
      m.seq != pending_rtsolpr_.seq) {
    return;
  }
  ++counters_.prrtadv_received;
  mark(HoEventKind::kPrRtAdvRecv);
  if (rtsolpr_timer_ != kInvalidEvent) node_.sim().cancel(rtsolpr_timer_);
  rtsolpr_timer_ = kInvalidEvent;
  prrtadv_received_ = true;
  last_grant_ = m.grant;
  negotiated_ncoa_ = m.ncoa;
  if (m.intra_ar) intra_pending_ = true;
  if (prrtadv_timed_out_ && target_ap_ != kNoNode && !fbu_sent_on_old_link_) {
    // The advertisement beat us after all; resume the anticipated path.
    prrtadv_timed_out_ = false;
    anticipated_ = true;
  }
}

void MhAgent::on_fback(const FbackMsg& m) {
  ++counters_.fback_received;
  const bool matches_old = fbu_old_seq_ != kNoCtrlSeq && m.seq == fbu_old_seq_;
  const bool matches_new = fbu_new_seq_ != kNoCtrlSeq && m.seq == fbu_new_seq_;
  if (m.seq != kNoCtrlSeq && !matches_old && !matches_new) return;  // stale
  fback_received_ = true;
  mark(HoEventKind::kFbackRecv);
  if (fbu_timer_ != kInvalidEvent) node_.sim().cancel(fbu_timer_);
  fbu_timer_ = kInvalidEvent;
  fbu_phase_ = FbuPhase::kIdle;
  if (!outcome_pending_) return;
  // Which FBU copy got through decides the attempt's classification: the
  // old-link (predictive) one, or the reactive reissue from the new link.
  if (matches_new || (m.seq == kNoCtrlSeq && fbu_new_seq_ != kNoCtrlSeq)) {
    resolve_outcome(HandoverOutcome::kReactive,
                    pending_cause_ == HandoverCause::kNone
                        ? HandoverCause::kNotAnticipated
                        : pending_cause_);
  } else {
    resolve_outcome(HandoverOutcome::kPredictive, HandoverCause::kNone);
  }
}

void MhAgent::on_l2_trigger(NodeId target_ap, Node& target_ar) {
  ++counters_.l2_triggers;
  if (!first_attach_done_) return;
  mark(HoEventKind::kL2Trigger);
  if (cfg_.simultaneous_binding && mip_ != nullptr &&
      target_ar.address() != current_ar_addr_) {
    mip_->send_simultaneous_binding(make_coa(target_ar.address().net, id()),
                                    cfg_.bu_lifetime);
  }
  if (!cfg_.use_fast_handover || !cfg_.anticipate) return;
  target_ap_ = target_ap;
  target_ar_addr_ = target_ar.address();
  intra_pending_ = target_ar_addr_ == current_ar_addr_;
  prrtadv_received_ = false;
  prrtadv_timed_out_ = false;
  fbu_sent_on_old_link_ = false;
  fback_received_ = false;
  anticipated_ = true;
  arm_watchdog();
  send_rtsolpr(target_ap);
}

void MhAgent::send_rtsolpr(NodeId target_ap) {
  RtSolPrMsg m;
  m.mh = id();
  m.target_ap = target_ap;
  if (cfg_.auth_key != 0) {
    m.auth_token = HandoverAuthenticator::token(id(), cfg_.auth_key);
  }
  if (cfg_.request_buffers) {
    m.has_bi = true;
    m.bi.size_pkts = cfg_.scheme.request_pkts;
    m.bi.lifetime = cfg_.scheme.lifetime;
    if (!cfg_.start_time_offset.is_zero()) {
      m.bi.start_time = node_.sim().now() + cfg_.start_time_offset;
    }
  }
  m.seq = ++next_seq_;
  pending_rtsolpr_ = m;
  rtsolpr_sends_ = 1;
  ++counters_.rtsolpr_sent;
  mark(HoEventKind::kRtSolPrSent);
  node_.send(make_control(node_.sim(), pcoa_, current_ar_addr_, m));
  if (cfg_.rtx.enabled) {
    arm(rtsolpr_timer_, 0, &MhAgent::rtsolpr_timeout);
  }
}

void MhAgent::rtsolpr_timeout() {
  rtsolpr_timer_ = kInvalidEvent;
  if (prrtadv_received_ || !anticipated_) return;
  if (rtsolpr_sends_ > cfg_.rtx.max_retries) {
    // No PrRtAdv despite retries: abandon anticipation. The handover
    // still completes via the reactive path after attachment (§2.3.2).
    ++counters_.rtsolpr_exhausted;
    prrtadv_timed_out_ = true;
    anticipated_ = false;
    if (pending_cause_ == HandoverCause::kNone) {
      pending_cause_ = HandoverCause::kNoPrRtAdv;
    }
    return;
  }
  ++counters_.rtsolpr_rtx;
  node_.send(
      make_control(node_.sim(), pcoa_, current_ar_addr_, pending_rtsolpr_));
  ++rtsolpr_sends_;
  arm(rtsolpr_timer_, rtsolpr_sends_ - 1, &MhAgent::rtsolpr_timeout);
}

void MhAgent::send_fbu(Address to, Address nar_addr, bool from_new_link) {
  FbuMsg m;
  m.mh = id();
  m.pcoa = pcoa_;
  m.nar_addr = nar_addr;
  m.from_new_link = from_new_link;
  m.seq = ++next_seq_;
  pending_fbu_ = m;
  fbu_src_ = pcoa_;
  fbu_dst_ = to;
  fbu_sends_ = 1;
  if (from_new_link) {
    fbu_new_seq_ = m.seq;
    fbu_phase_ = FbuPhase::kNewLink;
  } else {
    fbu_old_seq_ = m.seq;
    fbu_new_seq_ = kNoCtrlSeq;
    fbu_phase_ = FbuPhase::kOldLink;
  }
  ++counters_.fbu_sent;
  mark(from_new_link ? HoEventKind::kReactiveFbuSent : HoEventKind::kFbuSent);
  node_.send(make_control(node_.sim(), pcoa_, to, m));
  if (cfg_.rtx.enabled) {
    arm(fbu_timer_, 0, &MhAgent::fbu_timeout);
  } else {
    fbu_phase_ = FbuPhase::kIdle;
  }
}

void MhAgent::send_reactive_fbu() {
  // Reissue the unconfirmed binding update from the new link (§2.3.2). The
  // redirected address is the *previous* care-of address, preserved in the
  // cached predictive FBU.
  FbuMsg m = pending_fbu_;
  m.from_new_link = true;
  m.seq = ++next_seq_;
  pending_fbu_ = m;
  fbu_src_ = pcoa_;
  fbu_new_seq_ = m.seq;
  fbu_phase_ = FbuPhase::kNewLink;
  fbu_sends_ = 1;
  ++counters_.reactive_fbu;
  ++counters_.fbu_sent;
  mark(HoEventKind::kReactiveFbuSent);
  if (pending_cause_ == HandoverCause::kNone) {
    pending_cause_ = HandoverCause::kNoFback;
  }
  node_.send(make_control(node_.sim(), fbu_src_, fbu_dst_, m));
  arm(fbu_timer_, 0, &MhAgent::fbu_timeout);
}

void MhAgent::fbu_timeout() {
  fbu_timer_ = kInvalidEvent;
  if (fback_received_) {
    fbu_phase_ = FbuPhase::kIdle;
    return;
  }
  switch (fbu_phase_) {
    case FbuPhase::kIdle:
      return;
    case FbuPhase::kOldLink:
      if (fbu_sends_ > cfg_.rtx.max_retries) {
        // Keep the attempt alive: the unconfirmed FBU is reissued from the
        // new link once we attach (the kVerify phase handles it).
        fbu_phase_ = FbuPhase::kIdle;
        return;
      }
      ++counters_.fbu_rtx;
      node_.send(make_control(node_.sim(), fbu_src_, fbu_dst_, pending_fbu_));
      ++fbu_sends_;
      arm(fbu_timer_, fbu_sends_ - 1, &MhAgent::fbu_timeout);
      return;
    case FbuPhase::kVerify:
      // Attached, but the (tunnel-drained) FBack never showed: fall back
      // to the reactive path rather than trusting the old-link FBU.
      send_reactive_fbu();
      return;
    case FbuPhase::kNewLink:
      if (fbu_sends_ > cfg_.rtx.max_retries) {
        ++counters_.fbu_exhausted;
        fbu_phase_ = FbuPhase::kIdle;
        resolve_outcome(HandoverOutcome::kFailed, HandoverCause::kNoFback);
        return;
      }
      ++counters_.fbu_rtx;
      node_.send(make_control(node_.sim(), fbu_src_, fbu_dst_, pending_fbu_));
      ++fbu_sends_;
      arm(fbu_timer_, fbu_sends_ - 1, &MhAgent::fbu_timeout);
      return;
  }
}

void MhAgent::on_predisconnect(NodeId target_ap, Node& target_ar) {
  if (!cfg_.use_fast_handover || !first_attach_done_) return;
  if (outcome_pending_) {
    // A previous attempt never settled (extreme loss); close it out before
    // its bookkeeping is reused.
    resolve_outcome(HandoverOutcome::kFailed, HandoverCause::kNoFback);
  }
  if (anticipated_ && target_ap_ == target_ap) {
    // Anticipated path: FBU on the old link just before it drops. The
    // anticipation flag is only ever set by a sent RtSolPr (BI ordering).
    FHMIP_AUDIT("fastho", counters_.rtsolpr_sent > 0);
    fback_received_ = false;
    arm_watchdog();
    send_fbu(current_ar_addr_, target_ar.address(), /*from_new_link=*/false);
    fbu_sent_on_old_link_ = true;
  } else {
    // We never anticipated this target; the FBU will go via the new link.
    if (anticipated_ && pending_cause_ == HandoverCause::kNone) {
      pending_cause_ = HandoverCause::kTargetChanged;
    }
    target_ap_ = target_ap;
    target_ar_addr_ = target_ar.address();
    intra_pending_ = target_ar_addr_ == current_ar_addr_;
    anticipated_ = false;
    arm_watchdog();
  }
}

void MhAgent::on_detached() {
  link_up_ = false;
  if (first_attach_done_) {
    mark(HoEventKind::kBlackoutStart);
    // A blackout with no watchdog is the canonical wedge: if the radio
    // never reattaches, nothing else will ever close this attempt.
    if (cfg_.use_fast_handover) arm_watchdog();
  }
  // The old link is gone: retransmitting on it could only feed the drop
  // counters. Unconfirmed exchanges are settled at attachment.
  if (rtsolpr_timer_ != kInvalidEvent) node_.sim().cancel(rtsolpr_timer_);
  rtsolpr_timer_ = kInvalidEvent;
  if (fbu_phase_ == FbuPhase::kOldLink) {
    if (fbu_timer_ != kInvalidEvent) node_.sim().cancel(fbu_timer_);
    fbu_timer_ = kInvalidEvent;
    fbu_phase_ = FbuPhase::kIdle;
  }
}

void MhAgent::send_fna(Address src, Address dst) {
  FnaMsg fna;
  fna.mh = id();
  fna.has_bf = cfg_.request_buffers;
  fna.seq = ++next_seq_;
  pending_fna_ = fna;
  fna_src_ = src;
  fna_dst_ = dst;
  fna_sends_ = 1;
  ++counters_.fna_sent;
  mark(HoEventKind::kFnaSent);
  node_.send(make_control(node_.sim(), src, dst, fna));
  if (cfg_.rtx.enabled) {
    arm(fna_timer_, 0, &MhAgent::fna_timeout);
  }
}

void MhAgent::fna_timeout() {
  fna_timer_ = kInvalidEvent;
  if (fna_sends_ > cfg_.rtx.max_retries) {
    // Give up quietly: the buffers drain at lifetime expiry and traffic
    // resumes via the binding update.
    return;
  }
  ++counters_.fna_rtx;
  node_.send(make_control(node_.sim(), fna_src_, fna_dst_, pending_fna_));
  ++fna_sends_;
  arm(fna_timer_, fna_sends_ - 1, &MhAgent::fna_timeout);
}

void MhAgent::on_attached(NodeId /*ap*/, Node& ar) {
  link_up_ = true;
  const Address ar_addr = ar.address();
  // Use the NAR-validated NCoA when one was negotiated for this subnet
  // (it differs from the default when the proposal collided, §2.3.2).
  const Address new_coa =
      (negotiated_ncoa_.valid() && negotiated_ncoa_.net == ar_addr.net)
          ? negotiated_ncoa_
          : make_coa(ar_addr.net, id());
  negotiated_ncoa_ = kNoAddress;

  if (!first_attach_done_) {
    // Initial association: configure the care-of address and register with
    // the MAP so correspondent traffic starts flowing.
    first_attach_done_ = true;
    current_ar_addr_ = ar_addr;
    pcoa_ = new_coa;
    node_.add_address(pcoa_, /*advertised=*/false);
    if (mip_ != nullptr) mip_->send_binding_update(pcoa_, cfg_.bu_lifetime);
    return;
  }

  ++counters_.handoffs;
  mark(HoEventKind::kBlackoutEnd);

  if (ar_addr == current_ar_addr_) {
    // §3.2.2.4: pure link-layer handoff under the same access router —
    // FNA+BF releases the locally buffered packets. No outcome is recorded
    // for intra attempts, so any watchdog armed for a target that turned
    // out to be intra must stand down here.
    disarm_watchdog();
    ++counters_.intra_handoffs;
    if (cfg_.use_fast_handover) {
      send_fna(pcoa_, current_ar_addr_);
    }
    anticipated_ = false;
    target_ap_ = kNoNode;
    return;
  }

  // Inter-AR handover completed at the link layer.
  const Address old_ar = current_ar_addr_;
  node_.add_address(new_coa, /*advertised=*/false);

  if (cfg_.use_fast_handover) {
    if (outcome_pending_) {
      // Left over from an attempt that never settled (extreme loss).
      resolve_outcome(HandoverOutcome::kFailed, HandoverCause::kNoFback);
    }
    outcome_pending_ = true;
    arm_watchdog();
    if (!fbu_sent_on_old_link_) {
      // Non-anticipated handoff: FBU from the new link toward the PAR.
      ++counters_.non_anticipated;
      if (pending_cause_ == HandoverCause::kNone) {
        pending_cause_ = HandoverCause::kNotAnticipated;
      }
      fback_received_ = false;
      const HandoverCause cause = pending_cause_;
      send_fbu(old_ar, ar_addr, /*from_new_link=*/true);
      if (!cfg_.rtx.enabled) {
        // Fire-and-forget mode cannot track the FBack; count the attempt
        // optimistically, as the seed behavior did implicitly.
        resolve_outcome(HandoverOutcome::kReactive, cause);
      }
    } else if (fback_received_) {
      // The FBack made it back on the old link before the blackout.
      resolve_outcome(HandoverOutcome::kPredictive, HandoverCause::kNone);
    } else if (cfg_.rtx.enabled) {
      // The FBack usually rides the redirection tunnel and drains out of
      // the NAR buffer right after the FNA+BF below; give it a grace
      // window before concluding the old-link FBU was lost.
      fbu_dst_ = old_ar;
      fbu_phase_ = FbuPhase::kVerify;
      arm(fbu_timer_, 1, &MhAgent::fbu_timeout);
    } else {
      resolve_outcome(HandoverOutcome::kPredictive, HandoverCause::kNone);
    }
    // FNA(+BF) never precedes the FBU on an inter-AR fast handover; the
    // non-anticipated branch above sends the FBU first.
    FHMIP_AUDIT("fastho", counters_.fbu_sent > 0);
    send_fna(new_coa, ar_addr);
  }

  // HMIPv6 local binding update: reroute the regional address to the new
  // LCoA at the MAP (§2.2.1 step 4).
  if (mip_ != nullptr) mip_->send_binding_update(new_coa, cfg_.bu_lifetime);

  current_ar_addr_ = ar_addr;
  pcoa_ = new_coa;
  anticipated_ = false;
  prrtadv_received_ = false;
  prrtadv_timed_out_ = false;
  fbu_sent_on_old_link_ = false;
  target_ap_ = kNoNode;
}

void MhAgent::send_buffer_init(std::uint32_t size_pkts, SimTime start_time,
                               SimTime lifetime) {
  BiMsg m;
  m.mh = id();
  m.req.size_pkts = size_pkts;
  m.req.start_time = start_time;
  m.req.lifetime = lifetime;
  mark(HoEventKind::kBiSent);
  node_.send(make_control(node_.sim(), pcoa_, current_ar_addr_, m));
}

void MhAgent::send_buffer_forward(Address to_ar, Address forward_to) {
  BfMsg m;
  m.mh = id();
  m.forward_to = forward_to;
  node_.send(make_control(node_.sim(), pcoa_, to_ar, m));
}

}  // namespace fhmip
