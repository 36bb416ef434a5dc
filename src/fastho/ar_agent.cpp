#include "fastho/ar_agent.hpp"

#include "net/link.hpp"
#include "sim/check.hpp"

namespace fhmip {

// Adaptive allocation (§5): the disconnection a request must cover, and the
// floor under the rate-derived estimate.
constexpr SimTime kExpectedBlackout = SimTime::millis(300);
constexpr std::uint32_t kMinRequestPkts = 4;

ArAgent::ArAgent(Node& node, BufferSchemeConfig cfg, RetransmitPolicy rtx)
    : node_(node),
      cfg_(cfg),
      rtx_(rtx),
      buffers_(cfg.pool_pkts, cfg.allow_partial_grant, cfg.quota_pkts) {
  // Everything addressed into this router's subnet that is not the router
  // itself flows through the agent (LCoA delivery, handoff redirection).
  node_.routes().set_prefix_route(
      prefix(),
      Route::to([this](PacketPtr p) { handle_subnet_packet(std::move(p)); }));
  ctrl_id_ = node_.add_control_handler(
      [this](PacketPtr& p) { return handle_control(p); });
  Simulation& sim = node_.sim();
  // The reaper is the backstop behind the per-context lifetime timers: if a
  // lease outlives its deadline (timer lost to a bug or tampering, context
  // torn down without release), its packets are flushed into an accounted
  // drop bucket and the context goes with it.
  buffers_.set_reap_handler([this](BufferManager::LeaseKey k) {
    teardown(BufferManager::lease_mh(k), BufferManager::lease_role(k),
             DropReason::kLeaseReclaimed);
  });
  buffers_.set_observer(&sim, node_.name());
  obs::MetricsRegistry& m = sim.metrics();
  m_buffered_ = &m.counter("fastho/" + node_.name() + "/buffered_pkts");
  m_drained_ = &m.counter("fastho/" + node_.name() + "/drained_pkts");
  m_crashes_ = &m.counter("fastho/" + node_.name() + "/crashes");
}

ArAgent::~ArAgent() {
  teardown_all(DropReason::kBufferExpired);
  node_.routes().remove_prefix_route(prefix());
  node_.remove_control_handler(ctrl_id_);
}

void ArAgent::fault_reset() {
  ++counters_.crashes;
  m_crashes_->inc();
  teardown_all(DropReason::kFaultInjected);
  for (auto it = hosts_.begin(); it != hosts_.end();) {
    Host& h = it->second;
    // Post-crash state must be indistinguishable from a freshly started
    // agent: no handover context of any kind survives.
    FHMIP_AUDIT("fastho", !h.par && !h.nar && !h.intra);
    h.rate = RateEstimator{};  // rate history is lost with the process
    forget_if_idle(it++);
  }
}

const ArAgent::Host* ArAgent::find_host(MhId mh) const {
  auto it = hosts_.find(mh);
  return it == hosts_.end() ? nullptr : &it->second;
}

void ArAgent::forget_if_idle(HostTable::iterator it) {
  if (it->second.idle()) hosts_.erase(it);
}

void ArAgent::send_control(Address dst, MessageVariant m, std::uint32_t bytes) {
  node_.send(make_control(node_.sim(), address(), dst, std::move(m), bytes));
}

void ArAgent::drop(PacketPtr p, DropReason reason) {
  node_.sim().drop(std::move(p), reason, node_.name().c_str());
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

bool ArAgent::handle_control(PacketPtr& p) {
  if (const auto* m = std::get_if<RtSolPrMsg>(&p->msg)) {
    on_rtsolpr(*m, p->src);
    return true;
  }
  if (const auto* m = std::get_if<HiMsg>(&p->msg)) {
    on_hi(*m);
    return true;
  }
  if (const auto* m = std::get_if<HackMsg>(&p->msg)) {
    on_hack(*m);
    return true;
  }
  if (const auto* m = std::get_if<FbuMsg>(&p->msg)) {
    on_fbu(*m);
    return true;
  }
  if (const auto* m = std::get_if<FnaMsg>(&p->msg)) {
    on_fna(*m, p->src);
    return true;
  }
  if (const auto* m = std::get_if<BfMsg>(&p->msg)) {
    on_bf(*m);
    return true;
  }
  if (const auto* m = std::get_if<BufferFullMsg>(&p->msg)) {
    on_buffer_full(*m);
    return true;
  }
  if (const auto* m = std::get_if<BiMsg>(&p->msg)) {
    on_bi(*m);
    return true;
  }
  if (std::get_if<FbackMsg>(&p->msg) != nullptr) {
    // FBAck copy sent toward the new link (we hold it for the MH; the MH
    // completes the handshake via the PCoA copy in this implementation).
    return true;
  }
  return false;
}

void ArAgent::on_rtsolpr(const RtSolPrMsg& m, Address src) {
  ++counters_.rtsolpr;
  Simulation& sim = node_.sim();
  Node* target_ar = ar_of_ap(m.target_ap);
  // The PCoA is the address the host actually uses on this subnet — taken
  // from the solicitation's source when it was sent from this subnet.
  const Address pcoa =
      src.net == prefix() ? src : make_coa(prefix(), m.mh);

  // A retransmission of the transaction a live context already answers:
  // re-elicit the cached advertisement (if any), never redo allocation.
  if (m.seq != kNoCtrlSeq) {
    if (const Host* h = find_host(m.mh)) {
      if (h->intra && h->intra->rtsolpr_seq == m.seq) {
        ++counters_.dup_rtsolpr;
        send_adv(h->intra->adv, pcoa);
        return;
      }
      if (h->par && h->par->rtsolpr_seq == m.seq) {
        ++counters_.dup_rtsolpr;
        // Unsent means the HI/HAck leg is still in flight and its own
        // retransmission timer recovers the answer.
        send_adv(h->par->adv, h->par->pcoa);
        return;
      }
    }
  }

  // Cancellation: start time and lifetime both zero (§3.2.2.1).
  if (m.has_bi && m.bi.lifetime.is_zero() && m.bi.start_time.is_zero() &&
      m.bi.size_pkts == 0) {
    teardown(m.mh, ArRole::kPar);
    teardown(m.mh, ArRole::kIntra);
    return;
  }

  if (target_ar == &node_ || target_ar == nullptr) {
    // §3.2.2.4 — pure link-layer handoff under this same router: allocate
    // locally and answer with PrRtAdv directly.
    ++counters_.intra_handoffs;
    teardown(m.mh, ArRole::kIntra);
    IntraContext ctx;
    ctx.mh = m.mh;
    ctx.rtsolpr_seq = m.seq;
    if (m.has_bi) {
      const SimTime life =
          m.bi.lifetime.is_zero() ? cfg_.lifetime : m.bi.lifetime;
      ctx.grant = buffers_.allocate(BufferManager::key(m.mh, ArRole::kIntra),
                                    m.bi.size_pkts,
                                    sim.now() + life + cfg_.lease_grace);
      if (m.bi.start_time > sim.now()) {
        ctx.start_timer = sim.at(m.bi.start_time, [this, mh = m.mh] {
          if (Host* h = find_host(mh); h != nullptr && h->intra) {
            h->intra->buffering = true;
          }
        });
      }
      ctx.lifetime_timer =
          sim.in(life, [this, mh = m.mh] { teardown(mh, ArRole::kIntra); });
    }
    PrRtAdvMsg adv;
    adv.mh = m.mh;
    adv.intra_ar = true;
    adv.nar_node = node_.id();
    adv.nar_addr = address();
    adv.nar_prefix = prefix();
    adv.grant.par_ok = ctx.grant > 0;
    adv.grant.par_pkts = ctx.grant;
    adv.seq = m.seq;
    ctx.adv = {adv, true};
    std::unique_ptr<IntraContext>& intra = hosts_[m.mh].intra;
    intra = std::make_unique<IntraContext>(std::move(ctx));
    send_adv(intra->adv, pcoa);
    return;
  }

  // Inter-AR handover: open a PAR context and negotiate with the NAR.
  teardown(m.mh, ArRole::kPar);
  ParContext ctx;
  ctx.mh = m.mh;
  ctx.pcoa = pcoa;
  ctx.nar_addr = target_ar->address();
  ctx.rtsolpr_seq = m.seq;
  ctx.request = m.has_bi ? m.bi : BufferRequest{};
  if (cfg_.adaptive_request && m.has_bi && ctx.request.size_pkts > 0) {
    // Precise allocation (§5): replace the host's blanket request with the
    // observed downstream rate over the expected disconnection, clamped to
    // [min_request, requested].
    std::uint32_t est = kMinRequestPkts;
    if (const Host* h = find_host(m.mh)) {
      est = std::max(est, h->rate.packets_in(kExpectedBlackout, sim.now()));
    }
    ctx.request.size_pkts = std::min(est, ctx.request.size_pkts);
  }
  if (ctx.request.start_time > sim.now()) {
    // Safety valve for fast-moving hosts: buffering starts even if the FBU
    // never arrives on the old link.
    ctx.start_timer = sim.at(ctx.request.start_time, [this, mh = m.mh] {
      if (Host* h = find_host(mh); h != nullptr && h->par) {
        h->par->redirecting = true;
      }
    });
  }
  const SimTime life =
      ctx.request.lifetime.is_zero() ? cfg_.lifetime : ctx.request.lifetime;
  ctx.lease_deadline = sim.now() + life + cfg_.lease_grace;
  ctx.lifetime_timer =
      sim.in(life, [this, mh = m.mh] { teardown(mh, ArRole::kPar); });

  HiMsg hi;
  hi.mh = m.mh;
  hi.pcoa = pcoa;
  hi.par_addr = address();
  const bool nar_buffering =
      cfg_.mode == BufferMode::kNarOnly || cfg_.mode == BufferMode::kDual;
  if (m.has_bi && nar_buffering) {
    hi.br = ctx.request;
    hi.has_br = true;
  }
  hi.seq = ++next_seq_;
  ctx.hi_msg = hi;
  ctx.hi_sends = 1;
  const Address nar = ctx.nar_addr;
  if (rtx_.enabled) {
    ctx.hi_timer =
        sim.in(rtx_.timeout_for(0), [this, mh = m.mh] { hi_timeout(mh); });
  }
  hosts_[m.mh].par = std::make_unique<ParContext>(std::move(ctx));
  ++counters_.hi_sent;
  record(m.mh, obs::HoEventKind::kHiSent);
  send_control(nar, hi);
}

void ArAgent::hi_timeout(MhId mh) {
  Host* h = find_host(mh);
  if (h == nullptr || !h->par) return;
  ParContext& ctx = *h->par;
  ctx.hi_timer = kInvalidEvent;
  if (ctx.hack_received || ctx.hi_exhausted) return;
  if (ctx.hi_sends > rtx_.max_retries) {
    // The NAR never answered. Give up on the negotiation and report an
    // empty grant so the host falls back cleanly (reactive path). Nothing
    // is orphaned on the NAR's behalf: it only allocates on HI receipt,
    // and any allocation from a one-way-lost HAck is reclaimed by its
    // lifetime timer.
    ++counters_.hi_exhausted;
    ctx.hi_exhausted = true;
    ctx.nar_rejected = true;
    PrRtAdvMsg adv;
    adv.mh = mh;
    adv.nar_addr = ctx.nar_addr;
    adv.nar_prefix = ctx.nar_addr.net;
    adv.seq = ctx.rtsolpr_seq;
    ctx.adv = {adv, true};
    send_adv(ctx.adv, ctx.pcoa);
    return;
  }
  ++counters_.hi_rtx;
  send_control(ctx.nar_addr, ctx.hi_msg);
  ++ctx.hi_sends;
  ctx.hi_timer = node_.sim().in(rtx_.timeout_for(ctx.hi_sends - 1),
                                [this, mh] { hi_timeout(mh); });
}

void ArAgent::on_hi(const HiMsg& m) {
  ++counters_.hi_received;
  // A retransmitted HI re-elicits the cached HAck — it must NOT tear down
  // and re-allocate the context the first copy built (double-allocation).
  if (m.seq != kNoCtrlSeq) {
    if (const Host* h = find_host(m.mh);
        h != nullptr && h->nar && h->nar->hi_seq == m.seq) {
      ++counters_.dup_hi;
      ++counters_.hack_sent;
      send_control(m.par_addr, h->nar->hack_msg);
      return;
    }
  }
  teardown(m.mh, ArRole::kNar);
  Host& host = hosts_[m.mh];
  NarContext ctx;
  ctx.mh = m.mh;
  ctx.pcoa = m.pcoa;
  ctx.par_addr = m.par_addr;
  ctx.hi_seq = m.seq;
  ctx.mh_here = host.downlink != nullptr;
  const SimTime life =
      (m.has_br && !m.br.lifetime.is_zero()) ? m.br.lifetime : cfg_.lifetime;
  if (m.has_br) {
    Simulation& sim = node_.sim();
    ctx.grant = buffers_.allocate(BufferManager::key(m.mh, ArRole::kNar),
                                  m.br.size_pkts,
                                  sim.now() + life + cfg_.lease_grace);
    // BA grants never exceed the BR request, even with partial grants.
    FHMIP_AUDIT_MSG("fastho", ctx.grant <= m.br.size_pkts,
                    "granted " + std::to_string(ctx.grant) + " of " +
                        std::to_string(m.br.size_pkts));
    // The grant itself travels back in the HAck(+BA).
    if (m.br.size_pkts > 0) record_grant(m.mh, ctx.grant, m.br.size_pkts);
  }
  ctx.lifetime_timer = node_.sim().in(
      life, [this, mh = m.mh] { teardown(mh, ArRole::kNar); });
  // Host route for the PCoA: packets tunneled here with the old address
  // must not bounce back toward the PAR's subnet.
  node_.routes().set_host_route(
      m.pcoa,
      Route::to([this](PacketPtr p) { handle_subnet_packet(std::move(p)); }));

  HackMsg hack;
  hack.mh = m.mh;
  hack.granted_pkts = ctx.grant;
  hack.buffer_ok = ctx.grant > 0;
  hack.seq = m.seq;
  ctx.hack_msg = hack;
  host.nar = std::make_unique<NarContext>(std::move(ctx));
  ++counters_.hack_sent;
  send_control(m.par_addr, hack);
}

void ArAgent::on_hack(const HackMsg& m) {
  ++counters_.hack_received;
  // HAck(+BA) answers HI(+BR): it can never precede the first HI.
  FHMIP_AUDIT("fastho", counters_.hi_sent > 0);
  Host* h = find_host(m.mh);
  if (h == nullptr || !h->par) return;
  ParContext& ctx = *h->par;
  // A sequenced answer for a transaction other than the live HI is a stale
  // echo of a torn-down negotiation; a repeat for the live one is the NAR
  // answering a retransmitted HI. Neither may be processed twice.
  if (m.seq != kNoCtrlSeq && ctx.hi_msg.seq != kNoCtrlSeq &&
      m.seq != ctx.hi_msg.seq) {
    return;
  }
  if (ctx.hack_received) {
    ++counters_.dup_hack;
    return;
  }
  if (ctx.hi_timer != kInvalidEvent) {
    node_.sim().cancel(ctx.hi_timer);
    ctx.hi_timer = kInvalidEvent;
  }
  if (ctx.hi_exhausted) {
    // The answer limped in after the retries gave up; accept it and let
    // the fresh advertisement below overwrite the empty grant.
    ctx.hi_exhausted = false;
    ctx.nar_rejected = false;
  }
  ctx.hack_received = true;
  record(m.mh, obs::HoEventKind::kHackRecv);
  ctx.nar_grant = m.buffer_ok ? m.granted_pkts : 0;

  // PAR-side allocation policy: with classification on, the PAR's share is
  // needed for best-effort and high-priority overflow (Table 3.3 cases
  // 1.b/1.c/3.b/3.c); with it off the PAR buffer is the backup used when
  // the NAR denied — this is what lets the network as a whole serve twice
  // the handoffs (Figure 4.2).
  const bool par_buffering =
      cfg_.mode == BufferMode::kParOnly || cfg_.mode == BufferMode::kDual;
  if (par_buffering && ctx.request.size_pkts > 0) {
    const bool need_local = cfg_.mode == BufferMode::kParOnly ||
                            cfg_.classify || ctx.nar_grant == 0;
    if (need_local) {
      ctx.grant = buffers_.allocate(BufferManager::key(m.mh, ArRole::kPar),
                                    ctx.request.size_pkts, ctx.lease_deadline);
      record_grant(m.mh, ctx.grant, ctx.request.size_pkts);
    }
  }

  PrRtAdvMsg adv;
  adv.mh = m.mh;
  adv.nar_node = kNoNode;
  adv.nar_addr = ctx.nar_addr;
  adv.nar_prefix = ctx.nar_addr.net;
  adv.grant.nar_ok = ctx.nar_grant > 0;
  adv.grant.nar_pkts = ctx.nar_grant;
  adv.grant.par_ok = ctx.grant > 0;
  adv.grant.par_pkts = ctx.grant;
  adv.seq = ctx.rtsolpr_seq;
  ctx.adv = {adv, true};
  send_adv(ctx.adv, ctx.pcoa);
}

void ArAgent::send_adv(const CachedAdv& adv, Address to) {
  if (!adv.sent) return;
  ++counters_.prrtadv_sent;
  send_control(to, adv.msg);
}

void ArAgent::record_grant(MhId mh, std::uint32_t granted,
                           std::uint32_t requested) {
  // Exports the admission decision: did pool pressure shrink or refuse
  // the request?
  record(mh, granted == 0          ? obs::HoEventKind::kBufferDeny
              : granted < requested ? obs::HoEventKind::kBufferShrink
                                    : obs::HoEventKind::kBufferGrant);
}

void ArAgent::record(MhId mh, obs::HoEventKind kind) {
  node_.sim().timeline().record(node_.sim().now(), mh, kind, node_.name());
}

bool ArAgent::fresh(CtrlSeq& last, CtrlSeq seq) {
  if (seq != kNoCtrlSeq && last == seq) return false;
  last = seq;
  return true;
}

void ArAgent::send_fback(const ParContext& ctx, CtrlSeq seq,
                         bool from_new_link) {
  FbackMsg fb;
  fb.mh = ctx.mh;
  fb.ok = true;
  fb.seq = seq;
  ++counters_.fback_sent;
  // FBAck to the (possibly gone) old link and a copy toward the new link.
  node_.send(make_control(node_.sim(), address(), ctx.pcoa, fb));
  // A reactive FBU means the host already sits on the NAR's subnet with no
  // PCoA host route there — address the copy to its new care-of address so
  // it actually arrives (the anticipated-path copy to the router itself is
  // held informationally, the PCoA copy rides the tunnel).
  send_control(from_new_link ? make_coa(ctx.nar_addr.net, ctx.mh)
                             : ctx.nar_addr,
               fb);
}

void ArAgent::on_fbu(const FbuMsg& m) {
  Host* h = find_host(m.mh);
  // Intra-AR (link-layer) handoff: start buffering locally (§3.2.2.4).
  if (h != nullptr && h->intra) {
    IntraContext& ctx = *h->intra;
    if (fresh(ctx.last_fbu_seq, m.seq)) {
      ++counters_.fbu;
    } else {
      ++counters_.dup_fbu;
    }
    ctx.buffering = true;
    FbackMsg fb;
    fb.mh = m.mh;
    fb.ok = true;
    fb.seq = m.seq;
    ++counters_.fback_sent;
    send_control(make_coa(prefix(), m.mh), fb);
    return;
  }
  if (h == nullptr || !h->par) {
    // Non-anticipated handoff: the FBU arrives via the new link with no
    // prepared context — redirect with no buffers (Table 3.2 case 4).
    ++counters_.fbu;
    if (!m.nar_addr.valid()) return;
    ParContext ctx;
    ctx.mh = m.mh;
    ctx.pcoa = m.pcoa.valid() ? m.pcoa : make_coa(prefix(), m.mh);
    ctx.nar_addr = m.nar_addr;
    ctx.redirecting = true;
    ctx.last_fbu_seq = m.seq;
    ctx.lease_deadline = node_.sim().now() + cfg_.lifetime + cfg_.lease_grace;
    ctx.lifetime_timer = node_.sim().in(
        cfg_.lifetime, [this, mh = m.mh] { teardown(mh, ArRole::kPar); });
    h = &hosts_[m.mh];
    h->par = std::make_unique<ParContext>(std::move(ctx));
  } else if (!fresh(h->par->last_fbu_seq, m.seq)) {
    // Retransmission: the binding is already in place, just re-answer.
    ++counters_.dup_fbu;
    send_fback(*h->par, m.seq, m.from_new_link);
    return;
  } else {
    ++counters_.fbu;
  }
  ParContext& ctx = *h->par;
  ctx.redirecting = true;
  // The FBU proves the MH is alive and committed to this handover: push the
  // PAR-side lease deadline out (renewal piggybacked on the exchange — the
  // lifetime timer still owns the graceful teardown).
  ctx.lease_deadline = node_.sim().now() + cfg_.lifetime + cfg_.lease_grace;
  buffers_.renew(BufferManager::key(m.mh, ArRole::kPar), ctx.lease_deadline);
  if (ctx.start_timer != kInvalidEvent) {
    node_.sim().cancel(ctx.start_timer);
    ctx.start_timer = kInvalidEvent;
  }
  send_fback(ctx, m.seq, m.from_new_link);
}

void ArAgent::on_fna(const FnaMsg& m, Address src) {
  ++counters_.fna;
  // RFC 5568's NAACK analog: acknowledge sequenced announcements so the
  // host stops retransmitting (unsequenced FNAs keep the legacy
  // fire-and-forget behavior).
  if (m.seq != kNoCtrlSeq) {
    FnaAckMsg ack;
    ack.mh = m.mh;
    ack.seq = m.seq;
    ++counters_.fna_ack_sent;
    send_control(src.valid() ? src : make_coa(prefix(), m.mh), ack);
  }
  Host* h = find_host(m.mh);
  if (h != nullptr && h->intra) {
    IntraContext& ctx = *h->intra;
    if (!fresh(ctx.last_fna_seq, m.seq)) ++counters_.dup_fna;
    ctx.buffering = false;
    if (m.has_bf) drain(ctx, ArRole::kIntra);
    return;
  }
  if (h == nullptr || !h->nar) return;
  NarContext& ctx = *h->nar;
  if (!fresh(ctx.last_fna_seq, m.seq)) ++counters_.dup_fna;
  ctx.mh_here = true;
  // FNA = the MH arrived at this NAR; renew the buffer lease so the drain
  // (paced by drain_gap) can never race the reaper.
  buffers_.renew(BufferManager::key(m.mh, ArRole::kNar),
                 node_.sim().now() + cfg_.lifetime + cfg_.lease_grace);
  if (m.has_bf) {
    BfMsg bf;
    bf.mh = m.mh;
    ++counters_.bf_sent;
    record(m.mh, obs::HoEventKind::kBfSent);
    // BF toward the PAR is only ever triggered by an FNA from the MH. A
    // duplicate FNA re-sends the BF (the previous copy may be the loss
    // that caused the retransmission); the drain entry point is
    // idempotent, so no second drain chain can start.
    FHMIP_AUDIT("fastho", counters_.bf_sent <= counters_.fna);
    send_control(ctx.par_addr, bf);
    drain(ctx, ArRole::kNar);
  }
}

void ArAgent::on_bf(const BfMsg& m) {
  ++counters_.bf_received;
  Host* h = find_host(m.mh);
  if (h != nullptr && h->intra) {
    h->intra->buffering = false;
    h->intra->forward_to = m.forward_to;
    drain(*h->intra, ArRole::kIntra);
    return;
  }
  if (h == nullptr || !h->par) return;
  h->par->bf_received = true;
  drain(*h->par, ArRole::kPar);
}

void ArAgent::on_buffer_full(const BufferFullMsg& m) {
  ++counters_.buffer_full_received;
  if (Host* h = find_host(m.mh); h != nullptr && h->par) {
    h->par->nar_full = true;
  }
}

void ArAgent::on_bi(const BiMsg& m) {
  // Standalone smooth-handover baseline (§2.4): allocate, acknowledge, and
  // buffer from start_time (or immediately) until BF.
  teardown(m.mh, ArRole::kIntra);
  Simulation& sim = node_.sim();
  IntraContext ctx;
  ctx.mh = m.mh;
  const SimTime life =
      m.req.lifetime.is_zero() ? cfg_.lifetime : m.req.lifetime;
  ctx.grant = buffers_.allocate(BufferManager::key(m.mh, ArRole::kIntra),
                                m.req.size_pkts,
                                sim.now() + life + cfg_.lease_grace);
  if (m.req.size_pkts > 0) record_grant(m.mh, ctx.grant, m.req.size_pkts);
  if (m.req.start_time > sim.now()) {
    ctx.start_timer = sim.at(m.req.start_time, [this, mh = m.mh] {
      if (Host* h = find_host(mh); h != nullptr && h->intra) {
        h->intra->buffering = true;
      }
    });
  } else {
    ctx.buffering = ctx.grant > 0;
  }
  ctx.lifetime_timer =
      sim.in(life, [this, mh = m.mh] { teardown(mh, ArRole::kIntra); });
  BaMsg ba;
  ba.mh = m.mh;
  ba.ok = ctx.grant > 0;
  ba.granted_pkts = ctx.grant;
  hosts_[m.mh].intra = std::make_unique<IntraContext>(std::move(ctx));
  node_.send(make_control(sim, address(), make_coa(prefix(), m.mh), ba));
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void ArAgent::handle_subnet_packet(PacketPtr p) {
  const MhId mh = p->dst.host;
  auto it = hosts_.find(mh);
  if (it == hosts_.end()) {
    drop(std::move(p), DropReason::kUnattached);
    return;
  }
  Host& h = it->second;
  if (h.nar) {
    nar_handle(h, std::move(p));
    return;
  }
  if (h.intra) {
    const IntraContext& ctx = *h.intra;
    HandoffBuffer* buf =
        buffers_.buffer(BufferManager::key(mh, ArRole::kIntra));
    // Buffering is active from the FBU / BI start until BF, regardless of
    // attachment — the smooth-handover baseline buffers while the host is
    // still on the link (§2.4 step III).
    const bool hold = ctx.buffering;
    const bool keep_order = ctx.draining && buf != nullptr && !buf->empty();
    if ((hold || keep_order) && buf != nullptr) {
      if (!park(buf, p)) drop(std::move(p), DropReason::kBufferTailDrop);
      return;
    }
    deliver(h, std::move(p));
    return;
  }
  if (h.par && h.par->redirecting) {
    par_redirect(*h.par, std::move(p));
    return;
  }
  deliver(h, std::move(p));
}

void ArAgent::par_redirect(ParContext& ctx, PacketPtr p) {
  // Redirection only happens after the FBU (or the start-time safety valve)
  // flipped the context on; a packet arriving here earlier is a routing bug.
  FHMIP_AUDIT("fastho", ctx.redirecting);
  ++counters_.redirected;
  if (ctx.nar_rejected) {
    // No tunnel endpoint exists at the NAR: the packet has nowhere to go
    // while the host is detached (and routing recovers after the binding
    // update once the host reattaches).
    drop(std::move(p), DropReason::kUnattached);
    return;
  }
  if (p->directive == ForwardDirective::kBounceToPar) {
    // The NAR's buffer overflowed and sent this packet back (Case 1.b):
    // buffer it here or lose it — re-forwarding would ping-pong.
    p->directive = ForwardDirective::kNone;
    par_buffer_local(ctx, std::move(p));
    return;
  }
  if (ctx.bf_received) {
    // The MH is up at the NAR and buffers were released: plain forwarding
    // through the tunnel until the binding update reroutes traffic.
    tunnel_to(ctx.nar_addr, ForwardDirective::kForwardOnly, std::move(p));
    return;
  }
  const AllocationCase alloc{ctx.nar_grant > 0, ctx.grant > 0};
  switch (decide_buffering(cfg_, alloc, p->tclass)) {
    case BufferAction::kBufferAtNar:
      tunnel_to(ctx.nar_addr, ForwardDirective::kBufferAtNar, std::move(p));
      return;
    case BufferAction::kBufferAtBoth:
      if (!ctx.nar_full) {
        tunnel_to(ctx.nar_addr, ForwardDirective::kBufferAtNar, std::move(p));
      } else {
        par_buffer_local(ctx, std::move(p));
      }
      return;
    case BufferAction::kBufferAtParIfHeadroom: {
      HandoffBuffer* buf =
          buffers_.buffer(BufferManager::key(ctx.mh, ArRole::kPar));
      if (buf != nullptr && buf->free_slots() > cfg_.reserve_a &&
          park(buf, p)) {
        return;
      }
      drop(std::move(p), DropReason::kPolicyDrop);
      return;
    }
    case BufferAction::kBufferAtPar:
      par_buffer_local(ctx, std::move(p));
      return;
    case BufferAction::kForwardOnly:
      tunnel_to(ctx.nar_addr, ForwardDirective::kForwardOnly, std::move(p));
      return;
    case BufferAction::kDrop:
      drop(std::move(p), DropReason::kPolicyDrop);
      return;
  }
}

void ArAgent::par_buffer_local(ParContext& ctx, PacketPtr p) {
  const auto k = BufferManager::key(ctx.mh, ArRole::kPar);
  HandoffBuffer* buf = buffers_.buffer(k);
  if (buf == nullptr) {
    // The NAR filled up and we never held a lease (class-disabled backup
    // path): allocate one now if the pool allows it.
    const std::uint32_t want =
        ctx.request.size_pkts > 0 ? ctx.request.size_pkts : cfg_.request_pkts;
    ctx.grant = buffers_.allocate(k, want, ctx.lease_deadline);
    buf = buffers_.buffer(k);
  }
  if (!park(buf, p)) drop(std::move(p), DropReason::kBufferTailDrop);
}

void ArAgent::nar_handle(Host& h, PacketPtr p) {
  NarContext& ctx = *h.nar;
  if (ctx.mh_here) {
    // Preserve ordering while a drain is in progress: arrivals meant for
    // the buffer join the back of it instead of overtaking.
    HandoffBuffer* buf =
        buffers_.buffer(BufferManager::key(ctx.mh, ArRole::kNar));
    if (ctx.draining && buf != nullptr && !buf->empty() &&
        p->directive == ForwardDirective::kBufferAtNar && park(buf, p)) {
      return;
    }
    deliver(h, std::move(p));
    return;
  }
  switch (p->directive) {
    case ForwardDirective::kBufferAtNar:
      nar_buffer(ctx, std::move(p));
      return;
    default:
      // Forward-only traffic (and anything unmarked) is lost while the MH
      // is detached — exactly the loss the buffering exists to prevent.
      drop(std::move(p), DropReason::kUnattached);
      return;
  }
}

void ArAgent::nar_buffer(NarContext& ctx, PacketPtr p) {
  // No buffering after FNA: once the MH announced itself, arrivals are
  // delivered (or appended to a live drain), never parked in the buffer.
  FHMIP_AUDIT("fastho", !ctx.mh_here);
  HandoffBuffer* buf =
      buffers_.buffer(BufferManager::key(ctx.mh, ArRole::kNar));
  if (buf == nullptr) {
    drop(std::move(p), DropReason::kUnattached);
    return;
  }
  const TrafficClass cls = effective_class(p->tclass);
  if (cfg_.classify && cls == TrafficClass::kRealTime) {
    // Case 1.a/2.a: "if buffer full, drop the first real-time packet".
    PacketPtr evicted;
    switch (buf->push_evict_oldest_realtime(p, evicted)) {
      case HandoffBuffer::PushResult::kStored:
        count_buffered();
        return;
      case HandoffBuffer::PushResult::kStoredEvicting:
        count_buffered();
        drop(std::move(evicted), DropReason::kBufferFrontDrop);
        return;
      case HandoffBuffer::PushResult::kRejected:
        drop(std::move(p), DropReason::kBufferTailDrop);
        return;
    }
    return;
  }
  if (park(buf, p)) return;
  // Buffer full. High-priority packets (or any packet in class-disabled
  // dual mode) switch to PAR-side buffering: signal Buffer Full once and
  // bounce the packet back (Case 1.b — "the PAR buffers the rest").
  const bool dual_path =
      cfg_.mode == BufferMode::kDual &&
      (!cfg_.classify || cls == TrafficClass::kHighPriority);
  if (dual_path) {
    if (!ctx.full_signalled) {
      ctx.full_signalled = true;
      BufferFullMsg full;
      full.mh = ctx.mh;
      ++counters_.buffer_full_sent;
      send_control(ctx.par_addr, full);
    }
    ++counters_.bounced;
    tunnel_to(ctx.par_addr, ForwardDirective::kBounceToPar, std::move(p));
    return;
  }
  drop(std::move(p), DropReason::kBufferTailDrop);
}

bool ArAgent::park(HandoffBuffer* buf, PacketPtr& p) {
  if (buf == nullptr || buf->push(p) != HandoffBuffer::PushResult::kStored) {
    return false;
  }
  count_buffered();
  return true;
}

void ArAgent::count_buffered() {
  ++counters_.buffered_local;
  m_buffered_->inc();
}

void ArAgent::deliver(Host& h, PacketPtr p) {
  if (h.downlink == nullptr) {
    drop(std::move(p), DropReason::kUnattached);
    return;
  }
  if (!p->is_control()) h.rate.on_packet(node_.sim().now());
  p->directive = ForwardDirective::kNone;
  ++counters_.delivered_wireless;
  h.downlink->transmit(std::move(p));
}

double ArAgent::estimated_pps(MhId mh) const {
  const Host* h = find_host(mh);
  return h == nullptr ? 0.0 : h->rate.rate_pps(node_.sim().now());
}

void ArAgent::tunnel_to(Address ar, ForwardDirective d, PacketPtr p) {
  p->directive = d;
  p->encapsulate(ar);
  node_.send(std::move(p));
}

// ---------------------------------------------------------------------------
// Buffer release (§3.2.2.3)
// ---------------------------------------------------------------------------

void ArAgent::drain(ContextBase& ctx, ArRole role) {
  if (ctx.draining) return;
  ctx.draining = true;
  record(ctx.mh, obs::HoEventKind::kDrainStart);
  drain_step(ctx.mh, role);
}

void ArAgent::drain_step(MhId mh, ArRole role) {
  Host* h = find_host(mh);
  ContextBase* ctx = h == nullptr ? nullptr : h->context(role);
  if (ctx == nullptr || !ctx->draining) return;  // chain was stopped
  const auto k = BufferManager::key(mh, role);
  HandoffBuffer* buf = buffers_.buffer(k);
  if (buf == nullptr || buf->empty()) {
    ctx->draining = false;
    buffers_.release(k);
    ctx->grant = 0;
    record(mh, obs::HoEventKind::kDrainEnd);
    return;
  }
  PacketPtr p = buf->pop();
  ++counters_.drained;
  m_drained_->inc();
  switch (role) {
    case ArRole::kPar:
      tunnel_to(h->par->nar_addr, ForwardDirective::kDrain, std::move(p));
      break;
    case ArRole::kNar:
      // The NAR only releases its buffer once the MH has arrived (FNA+BF).
      FHMIP_AUDIT("fastho", h->nar->mh_here);
      deliver(*h, std::move(p));
      break;
    case ArRole::kIntra:
      if (h->intra->forward_to.valid()) {
        // Smooth-handover baseline: tunnel to the MH's new care-of address.
        tunnel_to(h->intra->forward_to, ForwardDirective::kNone, std::move(p));
      } else {
        deliver(*h, std::move(p));
      }
      break;
  }
  node_.sim().in(cfg_.drain_gap, [this, mh, role] { drain_step(mh, role); });
}

// ---------------------------------------------------------------------------
// Context teardown
// ---------------------------------------------------------------------------

void ArAgent::teardown(MhId mh, ArRole role, DropReason reason) {
  auto it = hosts_.find(mh);
  if (it == hosts_.end()) return;
  Host& h = it->second;
  ContextBase* ctx = h.context(role);
  if (ctx == nullptr) return;
  Simulation& sim = node_.sim();
  sim.cancel(ctx->start_timer);
  sim.cancel(ctx->lifetime_timer);
  if (role == ArRole::kPar) sim.cancel(h.par->hi_timer);
  if (role == ArRole::kNar) node_.routes().remove_host_route(h.nar->pcoa);
  const auto k = BufferManager::key(mh, role);
  if (HandoffBuffer* buf = buffers_.buffer(k)) {
    buf->flush(
        [this, reason](PacketPtr p) { drop(std::move(p), reason); });
  }
  buffers_.release(k);
  if (role == ArRole::kPar) {
    h.par.reset();
  } else if (role == ArRole::kNar) {
    h.nar.reset();
  } else {
    h.intra.reset();
  }
  forget_if_idle(it);
}

void ArAgent::teardown_all(DropReason reason) {
  for (ArRole role : {ArRole::kPar, ArRole::kNar, ArRole::kIntra}) {
    for (auto it = hosts_.begin(); it != hosts_.end();) {
      const MhId mh = (it++)->first;  // teardown may erase the record
      teardown(mh, role, reason);
    }
  }
}

// ---------------------------------------------------------------------------
// Attachment events from the WLAN layer
// ---------------------------------------------------------------------------

void ArAgent::on_mh_attached(MhId mh, NodeId /*ap*/, SimplexLink& downlink) {
  Host& h = hosts_[mh];
  h.downlink = &downlink;
  if (h.nar) h.nar->mh_here = true;
}

void ArAgent::on_mh_detached(MhId mh) {
  auto it = hosts_.find(mh);
  if (it == hosts_.end()) return;
  it->second.downlink = nullptr;
  forget_if_idle(it);
}

}  // namespace fhmip
