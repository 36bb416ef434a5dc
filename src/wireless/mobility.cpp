#include "wireless/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fhmip {

double distance(Vec2 a, Vec2 b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

LinearMobility::LinearMobility(Vec2 start, Vec2 velocity_mps, SimTime t0)
    : start_(start), vel_(velocity_mps), t0_(t0) {}

double LinearMobility::speed_bound(SimTime) const {
  return std::hypot(vel_.x, vel_.y);
}

Vec2 LinearMobility::position(SimTime t) const {
  if (t <= t0_) return start_;
  const double dt = (t - t0_).sec();
  return Vec2{start_.x + vel_.x * dt, start_.y + vel_.y * dt};
}

BounceMobility::BounceMobility(Vec2 a, Vec2 b, double speed_mps, SimTime t0)
    : a_(a), b_(b), speed_(speed_mps), t0_(t0) {}

SimTime BounceMobility::leg_duration() const {
  return SimTime::from_seconds(distance(a_, b_) / speed_);
}

// A non-positive speed leaves the host at `a` (position() below).
double BounceMobility::speed_bound(SimTime) const {
  return std::max(0.0, speed_);
}

Vec2 BounceMobility::position(SimTime t) const {
  if (t <= t0_) return a_;
  const double leg = distance(a_, b_) / speed_;
  if (leg <= 0) return a_;
  double phase = std::fmod((t - t0_).sec(), 2 * leg);
  bool toward_b = true;
  if (phase > leg) {
    phase -= leg;
    toward_b = false;
  }
  const double f = phase / leg;
  const Vec2 from = toward_b ? a_ : b_;
  const Vec2 to = toward_b ? b_ : a_;
  return Vec2{from.x + (to.x - from.x) * f, from.y + (to.y - from.y) * f};
}

WaypointMobility::WaypointMobility(Vec2 start, std::vector<Leg> legs,
                                   SimTime t0)
    : final_(start), t0_(t0) {
  Vec2 cur = start;
  SimTime at = t0;
  for (const Leg& l : legs) {
    const double d = distance(cur, l.to);
    const SimTime dur =
        l.speed_mps > 0 ? SimTime::from_seconds(d / l.speed_mps) : SimTime{};
    segments_.push_back({cur, l.to, at, at + dur});
    if (dur > SimTime{}) {
      max_speed_ = std::max(max_speed_, d / dur.sec());
    } else if (!(cur == l.to)) {
      max_speed_ = std::numeric_limits<double>::infinity();
    }
    at += dur;
    cur = l.to;
  }
  final_ = cur;
  end_ = at;
}

double WaypointMobility::speed_bound(SimTime t) const {
  return t < end_ ? max_speed_ : 0.0;
}

Vec2 WaypointMobility::position(SimTime t) const {
  if (segments_.empty() || t <= t0_) {
    return segments_.empty() ? final_ : segments_.front().from;
  }
  // Segment ends are non-decreasing, so the active segment — the first one
  // with t < end — binary-searches in O(log segments). Random-waypoint
  // walks carry hundreds of segments and this runs once per MH per WLAN
  // tick.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](SimTime v, const Segment& s) { return v < s.end; });
  if (it == segments_.end()) return final_;
  const Segment& s = *it;
  const double total = (s.end - s.begin).sec();
  if (total <= 0) return s.to;
  const double f = (t - s.begin).sec() / total;
  return Vec2{s.from.x + (s.to.x - s.from.x) * f,
              s.from.y + (s.to.y - s.from.y) * f};
}

}  // namespace fhmip
