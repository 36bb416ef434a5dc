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

// Spatial-hash cell key. Coordinates are truncated to 32 bits; two cells
// collide only when their indices differ by 2^32 cells — unreachable for
// any physical field.
std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

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
  aps_.push_back(std::make_unique<AccessPoint>(next_ap_id_++, ar_node, pos,
                                               radius_m, listener));
  AccessPoint& ap = *aps_.back();
  ap_index_[ap.id()] = &ap;
  if (running_) {
    // The grid and every queued host's slack assumed the old field.
    rebuild_ap_grid();
    for (auto& [mh, rec] : mhs_) {
      if (!rec.in_handoff) make_due(mh, rec);
    }
  }
  return ap;
}

void WlanManager::rebuild_ap_grid() {
  ap_grid_.clear();
  // Cell edge = the largest coverage radius (>= 1 m so degenerate radii
  // don't explode the cell count). Any AP covering a point is then at most
  // one cell away from it in either axis.
  grid_cell_ = 1.0;
  for (const auto& ap : aps_) grid_cell_ = std::max(grid_cell_, ap->radius());
  // Each AP is listed under the cells around its own, so a cell's lists
  // hold every AP of its neighbourhoods. Ids are handed out in insertion
  // order, so appending in `aps_` order keeps each list in id order: the
  // exact visit order of a full scan over `aps_`.
  for (const auto& ap : aps_) {
    const std::int64_t cx = cell_of(ap->position().x, grid_cell_);
    const std::int64_t cy = cell_of(ap->position().y, grid_cell_);
    for (std::int64_t dx = -2; dx <= 2; ++dx) {
      for (std::int64_t dy = -2; dy <= 2; ++dy) {
        GridCell& cell = ap_grid_[cell_key(cx + dx, cy + dy)];
        cell.wide.push_back(ap.get());
        if (std::abs(dx) <= 1 && std::abs(dy) <= 1) {
          cell.near.push_back(ap.get());
        }
      }
    }
  }
}

const WlanManager::GridCell& WlanManager::grid_cell(Vec2 pos) const {
  const auto it = ap_grid_.find(
      cell_key(cell_of(pos.x, grid_cell_), cell_of(pos.y, grid_cell_)));
  return it == ap_grid_.end() ? no_aps_ : it->second;
}

void WlanManager::add_mh(Node& mh_node, std::unique_ptr<MobilityModel> mob,
                         L2Callbacks* callbacks) {
  MhRecord rec;
  rec.node = &mh_node;
  rec.mobility = std::move(mob);
  rec.cb = callbacks;
  auto [it, inserted] = mhs_.emplace(mh_node.id(), std::move(rec));
  // Before start() every host is queued at once; after it, a new host is
  // evaluated by the next tick that has not passed it yet.
  if (inserted && running_) make_due(it->first, it->second);
}

WlanManager::~WlanManager() {
  sim_.cancel(tick_ev_);
  for (auto& [ap, ev] : ra_evs_) sim_.cancel(ev);
  for (EventId ev : oneshot_evs_) sim_.cancel(ev);
}

void WlanManager::start() {
  running_ = true;
  rebuild_ap_grid();
  tick_ = 0;
  due_.clear();
  for (auto& [mh, rec] : mhs_) {
    rec.due_tick = 0;
    due_.push_back({0, mh, &rec});
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
      ra_evs_[a->id()] = sim_.in(phase, [this, a] { send_router_adv(*a); });
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
    evaluate(e.mh, *e.rec);
  }
  polling_ = false;
#if FHMIP_AUDIT_LEVEL >= 2
  for (const auto& [mh, rec] : mhs_) {
    if (rec.in_handoff || rec.evaluated_tick == tick_) continue;
    FHMIP_AUDIT2_MSG("wlan",
                     decide(rec, rec.mobility->position(sim_.now())).idle(),
                     "skipped host mh" + std::to_string(mh) +
                         " would act at tick " + std::to_string(tick_));
  }
#endif
}

void WlanManager::make_due(MhId mh, MhRecord& rec) {
  queue(mh, rec, polling_ && mh > polling_mh_ ? tick_ : tick_ + 1);
}

void WlanManager::queue(MhId mh, MhRecord& rec, std::uint64_t tick) {
  // A tick that has run cannot evaluate anyone any more.
  FHMIP_AUDIT("wlan", tick >= tick_);
  if (rec.due_tick <= tick) return;  // already due no later
  rec.due_tick = tick;
  due_.push_back({tick, mh, &rec});
  std::push_heap(due_.begin(), due_.end(), later<DueEntry>);
}

void WlanManager::schedule_next(MhId mh, MhRecord& rec, Vec2 pos) {
  const double v = rec.mobility->speed_bound(sim_.now());
  if (v <= 0) return;  // never moves again: due only after a state change
  // In k ticks the host moves at most k * step. Skip the ticks before the
  // one on which it may have covered the slack, less one tick of margin.
  const double step = v * cfg_.tick.sec();
  const double ticks = std::floor((slack(rec, pos) - kSlackGuardM) / step) - 1;
  std::uint64_t ahead = 1;
  if (ticks > 1) ahead = static_cast<std::uint64_t>(std::min(ticks, 1e15));
  queue(mh, rec, tick_ + ahead);
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

void WlanManager::evaluate(MhId mh, MhRecord& rec) {
  if (rec.in_handoff) return;
  ++evaluations_;
  rec.evaluated_tick = tick_;
  const Vec2 pos = rec.mobility->position(sim_.now());
  const Decision dec = decide(rec, pos);
  if (dec.idle()) {
    schedule_next(mh, rec, pos);
    return;
  }

  if (dec.trigger) {
    // Fire the anticipation trigger (L2-ST) once per candidate AP per
    // visit. Only APs in the 3x3 cell neighbourhood can cover us, so the
    // grid walk fires exactly the triggers the full scan would.
    for (AccessPoint* other : nearby_aps(pos)) {
      if (other->id() == rec.attached) continue;
      if (other->covers(pos) && !rec.triggered.count(other->id())) {
        rec.triggered.insert(other->id());
        if (rec.cb) rec.cb->on_l2_trigger(other->id(), other->ar_node());
      }
    }
  }
  switch (dec.action) {
    case Decision::Action::kNone:
      break;
    case Decision::Action::kAttach:
      attach(mh, rec, *dec.target);
      break;
    case Decision::Action::kHandoff:
      start_handoff(mh, rec, *dec.target);
      break;
    case Decision::Action::kDetach:
      detach(mh, rec);
      set_attached(mh, rec, kNoNode);
      if (rec.cb) rec.cb->on_detached();
      break;
  }
  // A host in a blackout is queued again when it re-attaches. Otherwise the
  // new state is judged at the same position: the next tick if it still
  // has something to do, else once it may have moved its slack.
  if (rec.in_handoff) return;
  if (decide(rec, pos).idle()) {
    schedule_next(mh, rec, pos);
  } else {
    make_due(mh, rec);
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
        !rec.triggered.count(other->id())) {
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
    if (!rec.triggered.count(a->id())) s = std::min(s, uncovered);  // L2-ST
    const double blocked =
        h > 0 ? std::max(uncovered, (di + h - d) / 2) : uncovered;
    candidate = std::min(candidate, blocked);
  }
  return std::min(s, std::max(margin, candidate));
}

void WlanManager::force_handoff(MhId mh, NodeId target_ap, SimTime at) {
  oneshot_evs_.push_back(sim_.at(at, [this, mh, target_ap] {
    auto it = mhs_.find(mh);
    if (it == mhs_.end() || it->second.in_handoff) return;
    if (AccessPoint* target = ap(target_ap)) {
      if (target->id() != it->second.attached) {
        start_handoff(mh, it->second, *target);
      }
    }
  }));
}

void WlanManager::start_handoff(MhId mh, MhRecord& rec, AccessPoint& target) {
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
  const NodeId target_id = target.id();
  oneshot_evs_.push_back(
      sim_.in(cfg_.predisconnect_guard, [this, mh, target_id, blackout] {
        auto& r = mhs_.at(mh);
        detach(mh, r);
        if (r.cb) r.cb->on_detached();
        oneshot_evs_.push_back(sim_.in(blackout, [this, mh, target_id] {
          MhRecord& back = mhs_.at(mh);
          attach(mh, back, *ap(target_id));
          make_due(mh, back);
        }));
      }));
}

void WlanManager::detach(MhId mh, MhRecord& rec) {
  if (rec.attached == kNoNode) return;
  AccessPoint* cur = ap(rec.attached);
  RadioPair& pair = radio(*cur, mh);
  pair.down->set_up(false);
  pair.up->set_up(false);
  if (cur->listener()) cur->listener()->on_mh_detached(mh);
}

void WlanManager::attach(MhId mh, MhRecord& rec, AccessPoint& target) {
  RadioPair& pair = radio(target, mh);
  pair.down->set_up(true);
  pair.up->set_up(true);
  set_attached(mh, rec, target.id());
  rec.in_handoff = false;
  rec.triggered.clear();
  // The MH's way out is the uplink radio.
  rec.node->routes().set_default_route(Route::via(*pair.up));
  if (target.listener()) {
    target.listener()->on_mh_attached(mh, target.id(), *pair.down);
  }
  if (rec.cb) rec.cb->on_attached(target.id(), target.ar_node());
}

SimplexLink* WlanManager::uplink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  if (a == nullptr || mhs_.count(mh) == 0) return nullptr;
  return radio(*a, mh).up.get();
}

SimplexLink* WlanManager::downlink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  if (a == nullptr || mhs_.count(mh) == 0) return nullptr;
  return radio(*a, mh).down.get();
}

WlanManager::RadioPair& WlanManager::radio(const AccessPoint& ap, MhId mh) {
  const auto key = std::make_pair(ap.id(), mh);
  auto it = radios_.find(key);
  if (it == radios_.end()) {
    RadioPair pair;
    Node& mh_node = *mhs_.at(mh).node;
    pair.down = std::make_unique<SimplexLink>(
        sim_, mh_node, cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
        ap.ar_node().name() + ">mh" + std::to_string(mh));
    pair.up = std::make_unique<SimplexLink>(
        sim_, ap.ar_node(), cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
        "mh" + std::to_string(mh) + ">" + ap.ar_node().name());
    pair.down->set_up(false);
    pair.up->set_up(false);
    it = radios_.emplace(key, std::move(pair)).first;
  }
  return it->second;
}

void WlanManager::send_router_adv(AccessPoint& ap) {
  if (!running_) return;
  // The per-AP set mirrors `rec.attached` exactly (including hosts whose
  // record still points here during a handoff blackout), in MhId order —
  // the same hosts, in the same order, a full walk of `mhs_` would hit.
  if (auto sit = attached_mhs_.find(ap.id()); sit != attached_mhs_.end()) {
    for (MhId mh : sit->second) {
      MhRecord& rec = mhs_.at(mh);
      RouterAdvMsg adv;
      adv.ar_node = ap.ar_node().id();
      adv.ar_addr = ap.ar_node().address();
      adv.prefix = adv.ar_addr.net;
      adv.buffer_capable = true;  // the "B" flag (§2.4)
      auto p = make_control(sim_, ap.ar_node().address(),
                            rec.node->address(), adv, 80);
      radio(ap, mh).down->transmit(std::move(p));
    }
  }
  ra_evs_[ap.id()] = sim_.in(kRaInterval, [this, &ap] { send_router_adv(ap); });
}

void WlanManager::set_attached(MhId mh, MhRecord& rec, NodeId new_ap) {
  if (rec.attached == new_ap) return;
  if (rec.attached != kNoNode) attached_mhs_[rec.attached].erase(mh);
  if (new_ap != kNoNode) attached_mhs_[new_ap].insert(mh);
  rec.attached = new_ap;
}

Vec2 WlanManager::mh_position(MhId mh) const {
  auto it = mhs_.find(mh);
  return it == mhs_.end() ? Vec2{} : it->second.mobility->position(sim_.now());
}

NodeId WlanManager::attached_ap(MhId mh) const {
  auto it = mhs_.find(mh);
  return it == mhs_.end() ? kNoNode : it->second.attached;
}

bool WlanManager::in_handoff(MhId mh) const {
  auto it = mhs_.find(mh);
  return it != mhs_.end() && it->second.in_handoff;
}

AccessPoint* WlanManager::ap(NodeId id) const {
  auto it = ap_index_.find(id);
  return it == ap_index_.end() ? nullptr : it->second;
}

}  // namespace fhmip
