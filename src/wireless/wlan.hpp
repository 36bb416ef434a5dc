#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "wireless/access_point.hpp"
#include "wireless/l2_phases.hpp"
#include "wireless/mobility.hpp"

namespace fhmip {

/// Link-layer events delivered to the mobile host's protocol agent.
class L2Callbacks {
 public:
  virtual ~L2Callbacks() = default;
  /// L2 source trigger (L2-ST): a candidate AP came into range while still
  /// attached — the anticipation window opens (§3.2.2.1).
  virtual void on_l2_trigger(NodeId target_ap, Node& target_ar) = 0;
  /// The radio will go down in `guard` time; last chance to send the FBU.
  virtual void on_predisconnect(NodeId target_ap, Node& target_ar) = 0;
  /// Attached (or re-attached) under `ap` / access router `ar`.
  virtual void on_attached(NodeId ap, Node& ar) = 0;
  virtual void on_detached() = 0;
};

struct WlanConfig {
  SimTime tick = SimTime::millis(10);
  /// Link-layer handoff blackout. The paper cites 60–400 ms measured and
  /// simulates 200 ms (§4.1).
  SimTime l2_handoff_delay = SimTime::millis(200);
  /// When set, each handoff's blackout is sampled from the empirical
  /// probe/auth/assoc model instead of the fixed delay above.
  std::optional<L2PhaseModel> l2_phase_model;
  /// Start the handoff this many meters before the coverage edge.
  double exit_margin_m = 2.0;
  /// Margin-zone handoffs require the candidate AP to be at least this much
  /// closer than the serving one. Without it a host lingering where two
  /// exit margins overlap flaps A->B->A indefinitely (each flap runs the
  /// full buffer-allocation handshake); with it every handoff strictly
  /// shrinks the serving distance, so flap chains terminate. Zero keeps the
  /// historical nearest-wins behaviour. Hard detaches (out of coverage)
  /// ignore the hysteresis — any covering AP beats none.
  double handoff_hysteresis_m = 0.0;
  /// Delay between on_predisconnect (FBU transmission) and radio-down.
  SimTime predisconnect_guard = SimTime::millis(2);
  double bandwidth_bps = 11e6;
  SimTime delay = SimTime::millis(1);
  std::size_t queue_limit = 200;
  bool send_router_adv = true;
};

/// Owns access points, mobile-host radios and the association state machine:
/// position sampling, L2 triggers, handoff blackouts, per-(AP,MH) radio
/// links, and periodic router advertisements.
class WlanManager {
 public:
  WlanManager(Simulation& sim, WlanConfig cfg);
  ~WlanManager();

  AccessPoint& add_ap(Node& ar_node, Vec2 pos, double radius_m,
                      ArAttachListener* listener);

  void add_mh(Node& mh_node, std::unique_ptr<MobilityModel> mobility,
              L2Callbacks* callbacks);

  /// Starts the tick loop and performs initial association (every host is
  /// evaluated once, at the start instant).
  void start();
  void stop();

  /// Schedules a handoff to `target_ap` at `at`, regardless of geometry —
  /// used by the pure-L2-handoff experiments (Figures 4.12–4.14).
  void force_handoff(MhId mh, NodeId target_ap, SimTime at);

  // Introspection.
  Vec2 mh_position(MhId mh) const;
  NodeId attached_ap(MhId mh) const;  // kNoNode while detached
  bool in_handoff(MhId mh) const;
  AccessPoint* ap(NodeId id) const;
  /// The MH→AR radio link for `(ap, mh)`, created on demand like the
  /// association path would — fault harnesses attach TxFilters to it to
  /// kill/duplicate/delay MH-originated control messages. nullptr when the
  /// AP or MH is unknown.
  SimplexLink* uplink(NodeId ap, MhId mh);
  /// The AR→MH counterpart (PrRtAdv, FBack, FnaAck, drained packets).
  SimplexLink* downlink(NodeId ap, MhId mh);
  std::size_t handoffs_started() const { return handoffs_; }
  /// Host evaluations so far: association checks of one host at one tick
  /// (start() counts as tick 0). Hosts in a handoff blackout are not
  /// evaluated, and neither is a host on a tick where it provably cannot
  /// trigger, hand off, attach or detach.
  std::uint64_t evaluations() const { return evaluations_; }
  /// Blackout actually used by the most recent handoff (fixed or sampled).
  SimTime last_blackout() const { return last_blackout_; }

  const WlanConfig& config() const { return cfg_; }

 private:
  // AP ids live in a separate space from node ids: the i-th AP added is
  // kFirstApId + i, so ap() is an index into aps_.
  static constexpr NodeId kFirstApId = 10000;
  struct RadioPair {
    NodeId ap = kNoNode;
    std::unique_ptr<SimplexLink> down;  // AR -> MH
    std::unique_ptr<SimplexLink> up;    // MH -> AR
  };
  static constexpr std::uint64_t kNotDue = ~std::uint64_t{0};
  struct MhRecord {
    MhId mh = kNoNode;
    Node* node = nullptr;
    std::unique_ptr<MobilityModel> mobility;
    L2Callbacks* cb = nullptr;
    NodeId attached = kNoNode;
    // The downlink radio of `attached` (null while detached), which router
    // advertisements go out on.
    SimplexLink* serving_down = nullptr;
    bool in_handoff = false;
    std::vector<NodeId> triggered;  // APs already L2-ST'd since last attach
    // One radio pair per AP this host has been associated with (or asked
    // for through uplink()/downlink()), created on demand; a handful each.
    std::vector<RadioPair> radios;
    // The tick this host is next evaluated at (kNotDue: only after a state
    // change), and the last tick it was evaluated at.
    std::uint64_t due_tick = kNotDue;
    std::uint64_t evaluated_tick = kNotDue;

    bool has_triggered(NodeId ap) const {
      return std::find(triggered.begin(), triggered.end(), ap) !=
             triggered.end();
    }
  };
  // A min-heap entry of due_: popping in (tick, mh) order visits a tick's
  // due hosts in MhId order, the order of the every-host poll. An entry
  // whose tick no longer equals its record's due_tick is stale.
  struct DueEntry {
    std::uint64_t tick;
    MhId mh;
    MhRecord* rec;
  };
  // What evaluate() does for a host at a position; idle() means nothing.
  struct Decision {
    enum class Action : std::uint8_t { kNone, kAttach, kHandoff, kDetach };
    bool trigger = false;  // some not-yet-triggered AP covers the host
    Action action = Action::kNone;
    AccessPoint* target = nullptr;  // for kAttach and kHandoff
    bool idle() const { return !trigger && action == Action::kNone; }
  };
  // Per-AP state, indexed like aps_.
  struct ApSlot {
    // Hosts whose record points at this AP (including hosts in a handoff
    // blackout that left it), sorted by MhId: the router-advertisement
    // fan-out order.
    std::vector<MhRecord*> attached;
    EventId ra_ev = kInvalidEvent;  // the pending advertisement
  };

  MhRecord* record(MhId mh) const {
    return mh < mhs_.size() ? mhs_[mh].get() : nullptr;
  }
  void tick();
  /// Evaluates every host due at tick_, in MhId order.
  void poll_due();
  void evaluate(MhRecord& rec);
  Decision decide(const MhRecord& rec, Vec2 pos) const;
  /// How far the host at `pos` must move before decide() could stop being
  /// idle (decide() must be idle there).
  double slack(const MhRecord& rec, Vec2 pos) const;
  /// Queues the host at the first tick on which it may have moved `slack`.
  void schedule_next(MhRecord& rec, Vec2 pos);
  /// Queues the host at the next tick whose poll has not yet passed it.
  void make_due(MhRecord& rec);
  void queue(MhRecord& rec, std::uint64_t tick);
  AccessPoint* best_candidate(Vec2 pos, NodeId exclude) const;
  void start_handoff(MhRecord& rec, AccessPoint& target);
  void detach(MhRecord& rec);
  void attach(MhRecord& rec, AccessPoint& target);
  RadioPair& radio(const AccessPoint& ap, MhRecord& rec);
  void send_router_adv(AccessPoint& ap);
  /// Records a change of `rec.attached` in the per-AP attachment lists that
  /// send_router_adv iterates (kNoNode = detached).
  void set_attached(MhRecord& rec, NodeId new_ap);
  ApSlot& slot(NodeId ap) { return ap_slots_[ap - kFirstApId]; }
  void rebuild_ap_grid();
  /// APs whose coverage disc could contain `pos` (the 3x3 cell
  /// neighbourhood of the spatial grid), in insertion (= id) order — the
  /// same order a full scan of `aps_` would visit them. One index into a
  /// list precomputed by rebuild_ap_grid().
  const std::vector<AccessPoint*>& nearby_aps(Vec2 pos) const {
    return grid_cell(pos).near;
  }
  // The APs listed under one grid cell: every AP of its 3x3 cell
  // neighbourhood (in id order), and every AP of its 5x5 one, the APs
  // slack() measures one by one.
  struct GridCell {
    std::vector<AccessPoint*> near;
    std::vector<AccessPoint*> wide;
  };
  const GridCell& grid_cell(Vec2 pos) const;

  Simulation& sim_;
  WlanConfig cfg_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::vector<ApSlot> ap_slots_;
  // Indexed by MhId (null where no host has that id). Each record is owned
  // separately, so DueEntry::rec and ApSlot::attached survive growth.
  std::vector<std::unique_ptr<MhRecord>> mhs_;
  // Scaling indexes (a city-scale field has hundreds of APs and thousands
  // of MHs; every per-tick lookup must stay O(local density), not O(field
  // size), and none walks a tree):
  //  * ap(): id - kFirstApId indexes aps_ and ap_slots_;
  //  * grid_: a dense spatial grid with cell = max AP radius, so any AP
  //    covering a point lies in the 3x3 neighbourhood of its cell; it spans
  //    the APs' bounding cells +-2, the cells whose lists are not empty,
  //    and maps each cell to the APs of its neighbourhoods (GridCell);
  //  * ApSlot::attached: per-AP attachment lists (MhId-ordered, matching a
  //    whole-table walk) for router advertisement fan-out, each entry the
  //    host's record, whose serving_down is the radio to send on.
  std::vector<GridCell> grid_;
  std::int64_t grid_x0_ = 0, grid_y0_ = 0;  // cell coordinates of grid_[0]
  std::int64_t grid_w_ = 0, grid_h_ = 0;
  const GridCell no_aps_;  // a cell with no AP within two cells
  double grid_cell_ = 1.0;
  bool running_ = false;
  // Due-tick poll: tick_ is the index of the last tick that ran (start() is
  // tick 0); while poll_due() runs, polling_mh_ is the host it evaluates.
  std::vector<DueEntry> due_;
  std::uint64_t tick_ = 0;
  bool polling_ = false;
  MhId polling_mh_ = 0;
  std::uint64_t evaluations_ = 0;
  // Pending self-scheduled events, cancelled in the destructor so no timer
  // callback can fire into a dead manager. The tick loop and each AP's RA
  // chain (ApSlot::ra_ev) keep exactly one pending event; one-shot events
  // (forced handoffs and the detach/attach phases) are appended and
  // cancelled wholesale — cancelling an already-run id is a no-op.
  EventId tick_ev_ = kInvalidEvent;
  std::vector<EventId> oneshot_evs_;
  std::size_t handoffs_ = 0;
  SimTime last_blackout_;
  obs::Counter* m_handoffs_ = nullptr;       // wlan/handoffs
  obs::Histogram* m_blackout_ms_ = nullptr;  // wlan/blackout_ms
};

}  // namespace fhmip
