#include "wireless/wlan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "sim/check.hpp"

namespace fhmip {
namespace {

// Router advertisement period per access point (§4.1: one per second).
constexpr SimTime kRaInterval = SimTime::seconds(1);

std::int64_t cell_of(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

// Min-heap order of the due queue: earliest tick first, then MhId.
template <typename Entry>
bool later(const Entry& a, const Entry& b) {
  return a.tick != b.tick ? a.tick > b.tick : a.mh > b.mh;
}

// Subtracted from every slack, so the rounding of positions and distances
// (~1e-12 m on a city-sized field) can never make a skipped tick act.
constexpr double kSlackGuardM = 1e-6;

}  // namespace

WlanManager::WlanManager(Simulation& sim, WlanConfig cfg)
    : sim_(sim), cfg_(cfg) {
  obs::MetricsRegistry& m = sim_.metrics();
  m_handoffs_ = &m.counter("wlan/handoffs");
  m_blackout_ms_ = &m.histogram(
      "wlan/blackout_ms", {10, 20, 50, 100, 200, 300, 400, 500, 1000});
}

Node* ArAttachListener::ar_of_ap(NodeId ap) const {
  AccessPoint* a = wlan_ == nullptr ? nullptr : wlan_->ap(ap);
  return a == nullptr ? nullptr : &a->ar_node();
}

AccessPoint& WlanManager::add_ap(Node& ar_node, Vec2 pos, double radius_m,
                                 ArAttachListener* listener) {
  if (listener != nullptr) listener->wlan_ = this;
  const auto id = static_cast<NodeId>(kFirstApId + aps_.size());
  aps_.push_back(
      std::make_unique<AccessPoint>(id, ar_node, pos, radius_m, listener));
  ap_slots_.emplace_back();
  AccessPoint& ap = *aps_.back();
  if (running_) {
    // The grid and every queued host's slack assumed the old field.
    rebuild_ap_grid();
    for (const auto& rec : mhs_) {
      if (rec && !rec->in_handoff) make_due(*rec);
    }
  }
  return ap;
}

void WlanManager::rebuild_ap_grid() {
  grid_.clear();
  grid_w_ = grid_h_ = 0;
  if (aps_.empty()) return;
  // Cell edge = the largest coverage radius (>= 1 m so degenerate radii
  // don't explode the cell count). Any AP covering a point is then at most
  // one cell away from it in either axis.
  grid_cell_ = 1.0;
  for (const auto& ap : aps_) grid_cell_ = std::max(grid_cell_, ap->radius());
  // The grid spans the APs' bounding cells, two cells wider on each side:
  // every cell outside it has empty lists.
  std::int64_t x1 = 0, y1 = 0;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    const std::int64_t cx = cell_of(aps_[i]->position().x, grid_cell_);
    const std::int64_t cy = cell_of(aps_[i]->position().y, grid_cell_);
    grid_x0_ = i == 0 ? cx : std::min(grid_x0_, cx);
    grid_y0_ = i == 0 ? cy : std::min(grid_y0_, cy);
    x1 = i == 0 ? cx : std::max(x1, cx);
    y1 = i == 0 ? cy : std::max(y1, cy);
  }
  grid_x0_ -= 2;
  grid_y0_ -= 2;
  grid_w_ = x1 + 3 - grid_x0_;
  grid_h_ = y1 + 3 - grid_y0_;
  grid_.resize(static_cast<std::size_t>(grid_w_ * grid_h_));
  // Each AP is listed under the cells around its own, so a cell's lists
  // hold every AP of its neighbourhoods. Ids are handed out in insertion
  // order, so appending in `aps_` order keeps each list in id order: the
  // exact visit order of a full scan over `aps_`.
  for (const auto& ap : aps_) {
    const std::int64_t cx = cell_of(ap->position().x, grid_cell_) - grid_x0_;
    const std::int64_t cy = cell_of(ap->position().y, grid_cell_) - grid_y0_;
    for (std::int64_t dx = -2; dx <= 2; ++dx) {
      for (std::int64_t dy = -2; dy <= 2; ++dy) {
        GridCell& cell =
            grid_[static_cast<std::size_t>((cy + dy) * grid_w_ + cx + dx)];
        cell.wide.push_back(ap.get());
        if (std::abs(dx) <= 1 && std::abs(dy) <= 1) {
          cell.near.push_back(ap.get());
        }
      }
    }
  }
}

const WlanManager::GridCell& WlanManager::grid_cell(Vec2 pos) const {
  const std::int64_t cx = cell_of(pos.x, grid_cell_) - grid_x0_;
  const std::int64_t cy = cell_of(pos.y, grid_cell_) - grid_y0_;
  if (cx < 0 || cx >= grid_w_ || cy < 0 || cy >= grid_h_) return no_aps_;
  return grid_[static_cast<std::size_t>(cy * grid_w_ + cx)];
}

void WlanManager::add_mh(Node& mh_node, std::unique_ptr<MobilityModel> mob,
                         L2Callbacks* callbacks) {
  const MhId mh = mh_node.id();
  if (mh >= mhs_.size()) mhs_.resize(mh + std::size_t{1});
  if (mhs_[mh]) return;  // already known
  auto rec = std::make_unique<MhRecord>();
  rec->mh = mh;
  rec->node = &mh_node;
  rec->mobility = std::move(mob);
  rec->cb = callbacks;
  mhs_[mh] = std::move(rec);
  // Before start() every host is queued at once; after it, a new host is
  // evaluated by the next tick that has not passed it yet.
  if (running_) make_due(*mhs_[mh]);
}

WlanManager::~WlanManager() {
  sim_.cancel(tick_ev_);
  for (const ApSlot& a : ap_slots_) sim_.cancel(a.ra_ev);
  for (EventId ev : oneshot_evs_) sim_.cancel(ev);
}

void WlanManager::start() {
  running_ = true;
  rebuild_ap_grid();
  tick_ = 0;
  due_.clear();
  for (const auto& rec : mhs_) {
    if (!rec) continue;
    rec->due_tick = 0;
    due_.push_back({0, rec->mh, rec.get()});
  }
  std::make_heap(due_.begin(), due_.end(), later<DueEntry>);
  poll_due();
  tick_ev_ = sim_.in(cfg_.tick, [this] { tick(); });
  if (cfg_.send_router_adv) {
    for (auto& ap : aps_) {
      // Stagger advertisement phases so ARs don't beacon in lockstep.
      const SimTime phase =
          SimTime::from_seconds(sim_.rng().uniform(0.0, kRaInterval.sec()));
      AccessPoint* a = ap.get();
      slot(a->id()).ra_ev =
          sim_.in(phase, [this, a] { send_router_adv(*a); });
    }
  }
}

void WlanManager::stop() { running_ = false; }

void WlanManager::tick() {
  if (!running_) return;
  ++tick_;
  poll_due();
  tick_ev_ = sim_.in(cfg_.tick, [this] { tick(); });
}

// The due-tick poll. Each tick evaluates only the hosts queued for it, in
// MhId order; every other host is one whose evaluate() would provably have
// returned without a callback or a state change, so skipping it leaves the
// run identical to evaluating every host on every tick.
void WlanManager::poll_due() {
  polling_ = true;
  while (!due_.empty() && due_.front().tick <= tick_) {
    std::pop_heap(due_.begin(), due_.end(), later<DueEntry>);
    const DueEntry e = due_.back();
    due_.pop_back();
    if (e.rec->due_tick != e.tick) continue;  // re-queued or in a handoff
    e.rec->due_tick = kNotDue;
    polling_mh_ = e.mh;
    evaluate(*e.rec);
  }
  polling_ = false;
#if FHMIP_AUDIT_LEVEL >= 2
  for (const auto& rec : mhs_) {
    if (!rec || rec->in_handoff || rec->evaluated_tick == tick_) continue;
    FHMIP_AUDIT2_MSG("wlan",
                     decide(*rec, rec->mobility->position(sim_.now())).idle(),
                     "skipped host mh" + std::to_string(rec->mh) +
                         " would act at tick " + std::to_string(tick_));
  }
#endif
}

void WlanManager::make_due(MhRecord& rec) {
  queue(rec, polling_ && rec.mh > polling_mh_ ? tick_ : tick_ + 1);
}

void WlanManager::queue(MhRecord& rec, std::uint64_t tick) {
  // A tick that has run cannot evaluate anyone any more.
  FHMIP_AUDIT("wlan", tick >= tick_);
  if (rec.due_tick <= tick) return;  // already due no later
  rec.due_tick = tick;
  due_.push_back({tick, rec.mh, &rec});
  std::push_heap(due_.begin(), due_.end(), later<DueEntry>);
}

void WlanManager::schedule_next(MhRecord& rec, Vec2 pos) {
  const double v = rec.mobility->speed_bound(sim_.now());
  if (v <= 0) return;  // never moves again: due only after a state change
  // In k ticks the host moves at most k * step. Skip the ticks before the
  // one on which it may have covered the slack, less one tick of margin.
  const double step = v * cfg_.tick.sec();
  const double ticks = std::floor((slack(rec, pos) - kSlackGuardM) / step) - 1;
  std::uint64_t ahead = 1;
  if (ticks > 1) ahead = static_cast<std::uint64_t>(std::min(ticks, 1e15));
  queue(rec, tick_ + ahead);
}

AccessPoint* WlanManager::best_candidate(Vec2 pos, NodeId exclude) const {
  AccessPoint* best = nullptr;
  double best_dist = std::numeric_limits<double>::max();
  for (AccessPoint* ap : nearby_aps(pos)) {
    if (ap->id() == exclude) continue;
    const double d = ap->distance_to(pos);
    if (d <= ap->radius() && d < best_dist) {
      best = ap;
      best_dist = d;
    }
  }
  return best;
}

void WlanManager::evaluate(MhRecord& rec) {
  if (rec.in_handoff) return;
  ++evaluations_;
  rec.evaluated_tick = tick_;
  const Vec2 pos = rec.mobility->position(sim_.now());
  const Decision dec = decide(rec, pos);
  if (dec.idle()) {
    schedule_next(rec, pos);
    return;
  }

  if (dec.trigger) {
    // Fire the anticipation trigger (L2-ST) once per candidate AP per
    // visit. Only APs in the 3x3 cell neighbourhood can cover us, so the
    // grid walk fires exactly the triggers the full scan would.
    for (AccessPoint* other : nearby_aps(pos)) {
      if (other->id() == rec.attached) continue;
      if (other->covers(pos) && !rec.has_triggered(other->id())) {
        rec.triggered.push_back(other->id());
        if (rec.cb) rec.cb->on_l2_trigger(other->id(), other->ar_node());
      }
    }
  }
  switch (dec.action) {
    case Decision::Action::kNone:
      break;
    case Decision::Action::kAttach:
      attach(rec, *dec.target);
      break;
    case Decision::Action::kHandoff:
      start_handoff(rec, *dec.target);
      break;
    case Decision::Action::kDetach:
      detach(rec);
      set_attached(rec, kNoNode);
      if (rec.cb) rec.cb->on_detached();
      break;
  }
  // A host in a blackout is queued again when it re-attaches. Otherwise the
  // new state is judged at the same position: the next tick if it still
  // has something to do, else once it may have moved its slack.
  if (rec.in_handoff) return;
  if (decide(rec, pos).idle()) {
    schedule_next(rec, pos);
  } else {
    make_due(rec);
  }
}

WlanManager::Decision WlanManager::decide(const MhRecord& rec,
                                          Vec2 pos) const {
  using Action = Decision::Action;
  Decision dec;
  if (rec.attached == kNoNode) {
    if (AccessPoint* target = best_candidate(pos, kNoNode)) {
      dec.action = Action::kAttach;
      dec.target = target;
    }
    return dec;
  }

  const AccessPoint* cur = ap(rec.attached);
  const double d = cur->distance_to(pos);
  for (const AccessPoint* other : nearby_aps(pos)) {
    if (other->id() != rec.attached && other->covers(pos) &&
        !rec.has_triggered(other->id())) {
      dec.trigger = true;
      break;
    }
  }

  if (d > cur->radius()) {
    // Fell out of coverage without anticipating: hard detach, and if some
    // AP covers us, hand off immediately (non-anticipated path).
    dec.target = best_candidate(pos, rec.attached);
    dec.action = dec.target ? Action::kHandoff : Action::kDetach;
    return dec;
  }

  if (d > cur->radius() - cfg_.exit_margin_m) {
    if (AccessPoint* target = best_candidate(pos, rec.attached)) {
      if (cfg_.handoff_hysteresis_m <= 0 ||
          target->distance_to(pos) + cfg_.handoff_hysteresis_m < d) {
        dec.action = Action::kHandoff;
        dec.target = target;
      }
    }
  }
  return dec;
}

// Each term is how far the host must move before one of decide()'s
// predicates could flip toward acting. Distances are 1-Lipschitz in the
// host's position and a difference of two distances 2-Lipschitz, so no
// predicate flips while the host has moved less than the minimum.
//
// Every action decide() can take needs some AP of nearby_aps() to cover
// the host (or the serving AP to lose it), so bounding *every* AP of the
// field bounds decide() wherever the host goes, whichever cell it is in.
// The APs of the 5x5 cell neighbourhood are measured one by one; any other
// AP is at least two cells plus the host's distance e to its own cell's
// edge away, so at least one cell (>= its radius) plus e outside its
// coverage.
double WlanManager::slack(const MhRecord& rec, Vec2 pos) const {
  const double fx = pos.x - cell_of(pos.x, grid_cell_) * grid_cell_;
  const double fy = pos.y - cell_of(pos.y, grid_cell_) * grid_cell_;
  double s = grid_cell_ + std::min({fx, grid_cell_ - fx, fy, grid_cell_ - fy});
  const std::vector<AccessPoint*>& aps = grid_cell(pos).wide;

  if (rec.attached == kNoNode) {
    // Attach: some AP comes to cover the host.
    for (const AccessPoint* a : aps) {
      s = std::min(s, a->distance_to(pos) - a->radius());
    }
    return s;
  }

  const AccessPoint* cur = ap(rec.attached);
  const double d = cur->distance_to(pos);
  const double h = cfg_.handoff_hysteresis_m;
  s = std::min(s, cur->radius() - d);  // hard exit
  // A soft handoff needs the host inside the exit margin *and* a candidate
  // that covers it and, with hysteresis, is h closer than the serving AP.
  const double margin = cur->radius() - cfg_.exit_margin_m - d;
  double candidate = std::numeric_limits<double>::infinity();
  for (const AccessPoint* a : aps) {
    if (a->id() == rec.attached) continue;
    const double di = a->distance_to(pos);
    const double uncovered = di - a->radius();
    if (!rec.has_triggered(a->id())) s = std::min(s, uncovered);  // L2-ST
    const double blocked =
        h > 0 ? std::max(uncovered, (di + h - d) / 2) : uncovered;
    candidate = std::min(candidate, blocked);
  }
  return std::min(s, std::max(margin, candidate));
}

void WlanManager::force_handoff(MhId mh, NodeId target_ap, SimTime at) {
  oneshot_evs_.push_back(sim_.at(at, [this, mh, target_ap] {
    MhRecord* rec = record(mh);
    if (rec == nullptr || rec->in_handoff) return;
    if (AccessPoint* target = ap(target_ap)) {
      if (target->id() != rec->attached) start_handoff(*rec, *target);
    }
  }));
}

void WlanManager::start_handoff(MhRecord& rec, AccessPoint& target) {
  FHMIP_AUDIT("wlan", !rec.in_handoff);  // one blackout at a time
  rec.in_handoff = true;
  rec.due_tick = kNotDue;  // attach() queues it again
  ++handoffs_;
  // Blackout: fixed (§4.1's 200 ms) or sampled from the empirical
  // probe/auth/assoc decomposition of Mishra et al.
  const SimTime blackout = cfg_.l2_phase_model
                               ? cfg_.l2_phase_model->sample(sim_.rng()).total()
                               : cfg_.l2_handoff_delay;
  last_blackout_ = blackout;
  m_handoffs_->inc();
  m_blackout_ms_->observe(blackout.millis_f());
  if (rec.cb) rec.cb->on_predisconnect(target.id(), target.ar_node());
  AccessPoint* to = &target;
  MhRecord* r = &rec;
  oneshot_evs_.push_back(
      sim_.in(cfg_.predisconnect_guard, [this, r, to, blackout] {
        detach(*r);
        if (r->cb) r->cb->on_detached();
        oneshot_evs_.push_back(sim_.in(blackout, [this, r, to] {
          attach(*r, *to);
          make_due(*r);
        }));
      }));
}

void WlanManager::detach(MhRecord& rec) {
  if (rec.attached == kNoNode) return;
  AccessPoint* cur = ap(rec.attached);
  RadioPair& pair = radio(*cur, rec);
  pair.down->set_up(false);
  pair.up->set_up(false);
  if (cur->listener()) cur->listener()->on_mh_detached(rec.mh);
}

void WlanManager::attach(MhRecord& rec, AccessPoint& target) {
  RadioPair& pair = radio(target, rec);
  pair.down->set_up(true);
  pair.up->set_up(true);
  set_attached(rec, target.id());
  rec.in_handoff = false;
  rec.triggered.clear();
  // The MH's way out is the uplink radio.
  rec.node->routes().set_default_route(Route::via(*pair.up));
  if (target.listener()) {
    target.listener()->on_mh_attached(rec.mh, target.id(), *pair.down);
  }
  if (rec.cb) rec.cb->on_attached(target.id(), target.ar_node());
}

SimplexLink* WlanManager::uplink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  MhRecord* rec = record(mh);
  if (a == nullptr || rec == nullptr) return nullptr;
  return radio(*a, *rec).up.get();
}

SimplexLink* WlanManager::downlink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  MhRecord* rec = record(mh);
  if (a == nullptr || rec == nullptr) return nullptr;
  return radio(*a, *rec).down.get();
}

WlanManager::RadioPair& WlanManager::radio(const AccessPoint& ap,
                                           MhRecord& rec) {
  for (RadioPair& pair : rec.radios) {
    if (pair.ap == ap.id()) return pair;
  }
  RadioPair pair;
  pair.ap = ap.id();
  const std::string mh = "mh" + std::to_string(rec.mh);
  pair.down = std::make_unique<SimplexLink>(
      sim_, *rec.node, cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
      ap.ar_node().name() + ">" + mh);
  pair.up = std::make_unique<SimplexLink>(
      sim_, ap.ar_node(), cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
      mh + ">" + ap.ar_node().name());
  pair.down->set_up(false);
  pair.up->set_up(false);
  return rec.radios.emplace_back(std::move(pair));
}

void WlanManager::send_router_adv(AccessPoint& ap) {
  if (!running_) return;
  // The per-AP list mirrors `rec.attached` exactly (including hosts whose
  // record still points here during a handoff blackout), in MhId order —
  // the same hosts, in the same order, a full walk of `mhs_` would hit.
  ApSlot& as = slot(ap.id());
  for (const MhRecord* rec : as.attached) {
    RouterAdvMsg adv;
    adv.ar_node = ap.ar_node().id();
    adv.ar_addr = ap.ar_node().address();
    adv.prefix = adv.ar_addr.net;
    adv.buffer_capable = true;  // the "B" flag (§2.4)
    auto p = make_control(sim_, ap.ar_node().address(), rec->node->address(),
                          adv, 80);
    rec->serving_down->transmit(std::move(p));
  }
  as.ra_ev = sim_.in(kRaInterval, [this, &ap] { send_router_adv(ap); });
}

void WlanManager::set_attached(MhRecord& rec, NodeId new_ap) {
  if (rec.attached == new_ap) return;
  const auto by_mh = [](const MhRecord* a, const MhRecord* b) {
    return a->mh < b->mh;
  };
  if (rec.attached != kNoNode) {
    std::vector<MhRecord*>& old = slot(rec.attached).attached;
    old.erase(std::lower_bound(old.begin(), old.end(), &rec, by_mh));
  }
  rec.attached = new_ap;
  rec.serving_down = nullptr;
  if (new_ap != kNoNode) {
    std::vector<MhRecord*>& now = slot(new_ap).attached;
    now.insert(std::upper_bound(now.begin(), now.end(), &rec, by_mh), &rec);
    rec.serving_down = radio(*ap(new_ap), rec).down.get();
  }
}

Vec2 WlanManager::mh_position(MhId mh) const {
  const MhRecord* rec = record(mh);
  return rec == nullptr ? Vec2{} : rec->mobility->position(sim_.now());
}

NodeId WlanManager::attached_ap(MhId mh) const {
  const MhRecord* rec = record(mh);
  return rec == nullptr ? kNoNode : rec->attached;
}

bool WlanManager::in_handoff(MhId mh) const {
  const MhRecord* rec = record(mh);
  return rec != nullptr && rec->in_handoff;
}

AccessPoint* WlanManager::ap(NodeId id) const {
  const std::size_t i = id - std::size_t{kFirstApId};
  return id >= kFirstApId && i < aps_.size() ? aps_[i].get() : nullptr;
}

}  // namespace fhmip
