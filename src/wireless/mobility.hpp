#pragma once

#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace fhmip {

struct Vec2 {
  double x = 0;
  double y = 0;
  friend constexpr bool operator==(Vec2, Vec2) = default;
};

double distance(Vec2 a, Vec2 b);

/// Deterministic position-over-time model sampled by the WLAN layer.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position(SimTime t) const = 0;
  /// Upper bound (m/s) on the host's speed at every instant from `t` on;
  /// +infinity when the position can still jump. The WLAN layer divides a
  /// host's distance to its nearest association boundary by this to skip
  /// the ticks on which its association provably cannot change.
  virtual double speed_bound(SimTime t) const = 0;
};

class StaticPosition final : public MobilityModel {
 public:
  explicit StaticPosition(Vec2 p) : p_(p) {}
  Vec2 position(SimTime) const override { return p_; }
  double speed_bound(SimTime) const override { return 0; }

 private:
  Vec2 p_;
};

/// Constant-velocity motion from `start` beginning at `t0` (positions before
/// t0 stay at `start`).
class LinearMobility final : public MobilityModel {
 public:
  LinearMobility(Vec2 start, Vec2 velocity_mps, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  double speed_bound(SimTime t) const override;

 private:
  Vec2 start_;
  Vec2 vel_;
  SimTime t0_;
};

/// Ping-pong motion between endpoints `a` and `b` at constant speed — the
/// "moving back and forth between the two access routers" workload of §4.2.2.
class BounceMobility final : public MobilityModel {
 public:
  BounceMobility(Vec2 a, Vec2 b, double speed_mps, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  double speed_bound(SimTime t) const override;

  /// Time for one full leg (a→b).
  SimTime leg_duration() const;

 private:
  Vec2 a_;
  Vec2 b_;
  double speed_;
  SimTime t0_;
};

/// Piecewise-linear motion through waypoints at per-leg speeds; the host
/// stops at the final waypoint. A leg with speed <= 0 takes no time: the
/// host jumps to its waypoint.
class WaypointMobility final : public MobilityModel {
 public:
  struct Leg {
    Vec2 to;
    double speed_mps;
  };
  WaypointMobility(Vec2 start, std::vector<Leg> legs, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  /// The fastest segment's actual speed (distance over its whole-ns
  /// duration, which rounding can make faster than the leg's speed_mps)
  /// until the last segment ends, 0 after. A zero-duration segment that
  /// moves the host makes it +infinity until then.
  double speed_bound(SimTime t) const override;

 private:
  struct Segment {
    Vec2 from;
    Vec2 to;
    SimTime begin;
    SimTime end;
  };
  std::vector<Segment> segments_;
  Vec2 final_;
  SimTime t0_;
  double max_speed_ = 0;
  SimTime end_;  // end of the last segment (t0 without legs)
};

}  // namespace fhmip
