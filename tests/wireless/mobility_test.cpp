#include "wireless/mobility.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(StaticPosition, NeverMoves) {
  StaticPosition m({5, 6});
  EXPECT_EQ(m.position(0_s), (Vec2{5, 6}));
  EXPECT_EQ(m.position(100_s), (Vec2{5, 6}));
}

TEST(LinearMobility, MovesAtConstantVelocity) {
  LinearMobility m({0, 0}, {10, 0});
  EXPECT_EQ(m.position(0_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(1_s), (Vec2{10, 0}));
  EXPECT_EQ(m.position(2500_ms), (Vec2{25, 0}));
}

TEST(LinearMobility, HoldsBeforeStartTime) {
  LinearMobility m({0, 0}, {10, 0}, 5_s);
  EXPECT_EQ(m.position(0_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(5_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(6_s), (Vec2{10, 0}));
}

TEST(LinearMobility, DiagonalMotion) {
  LinearMobility m({0, 0}, {3, 4});
  const Vec2 p = m.position(2_s);
  EXPECT_DOUBLE_EQ(p.x, 6);
  EXPECT_DOUBLE_EQ(p.y, 8);
}

TEST(BounceMobility, ReachesFarEndAtLegDuration) {
  BounceMobility m({0, 0}, {212, 0}, 10.0);
  EXPECT_EQ(m.leg_duration(), SimTime::from_seconds(21.2));
  const Vec2 far = m.position(SimTime::from_seconds(21.2));
  EXPECT_NEAR(far.x, 212, 1e-6);
}

TEST(BounceMobility, ReturnsToStart) {
  BounceMobility m({0, 0}, {212, 0}, 10.0);
  const Vec2 back = m.position(SimTime::from_seconds(42.4));
  EXPECT_NEAR(back.x, 0, 1e-6);
}

TEST(BounceMobility, MidLegPositions) {
  BounceMobility m({0, 0}, {100, 0}, 10.0);
  EXPECT_NEAR(m.position(5_s).x, 50, 1e-9);
  // 15 s = 10 s out (at 100) + 5 s back -> 50.
  EXPECT_NEAR(m.position(15_s).x, 50, 1e-9);
  // Second cycle repeats.
  EXPECT_NEAR(m.position(25_s).x, 50, 1e-9);
}

TEST(BounceMobility, HoldsBeforeStart) {
  BounceMobility m({7, 0}, {100, 0}, 10.0, 2_s);
  EXPECT_EQ(m.position(1_s), (Vec2{7, 0}));
}

TEST(BounceMobility, DegenerateEndpointsStayPut) {
  BounceMobility m({5, 5}, {5, 5}, 10.0);
  EXPECT_EQ(m.position(99_s), (Vec2{5, 5}));
}

TEST(WaypointMobility, FollowsLegsAndStops) {
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}, {{10, 20}, 5.0}});
  EXPECT_NEAR(m.position(500_ms).x, 5, 1e-9);   // halfway leg 1 (1 s total)
  EXPECT_NEAR(m.position(1_s).x, 10, 1e-9);
  EXPECT_NEAR(m.position(3_s).y, 10, 1e-9);     // halfway leg 2 (4 s total)
  EXPECT_EQ(m.position(100_s), (Vec2{10, 20}));  // parked at the end
}

TEST(WaypointMobility, EmptyLegsStayAtStart) {
  WaypointMobility m({3, 4}, {});
  EXPECT_EQ(m.position(10_s), (Vec2{3, 4}));
}

TEST(WaypointMobility, ManyLegsSampleExactlyAtSegmentBoundaries) {
  // A long walk exercises the binary search over segments: samples on,
  // just before, and just after every boundary must land on the same
  // positions the linear scan produced (a segment owns [start, end)).
  std::vector<WaypointMobility::Leg> legs;
  for (int i = 1; i <= 64; ++i) {
    legs.push_back({{static_cast<double>(10 * i), 0}, 10.0});  // 1 s per leg
  }
  WaypointMobility m({0, 0}, legs);
  for (int i = 1; i <= 64; ++i) {
    const SimTime boundary = SimTime::seconds(i);
    EXPECT_NEAR(m.position(boundary).x, 10.0 * i, 1e-9) << "leg " << i;
    EXPECT_NEAR(m.position(boundary - 1_ms).x, 10.0 * i - 0.01, 1e-9);
    if (i < 64) {
      EXPECT_NEAR(m.position(boundary + 1_ms).x, 10.0 * i + 0.01, 1e-9);
    }
  }
  EXPECT_EQ(m.position(1000_s), (Vec2{640, 0}));  // parked past the end
}

TEST(WaypointMobility, StartOffsetShiftsSchedule) {
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}}, 2_s);
  EXPECT_EQ(m.position(1_s), (Vec2{0, 0}));
  EXPECT_NEAR(m.position(2500_ms).x, 5, 1e-9);
}

TEST(SpeedBound, StaticLinearAndBounce) {
  EXPECT_EQ(StaticPosition({5, 6}).speed_bound(0_s), 0.0);
  LinearMobility lin({0, 0}, {3, 4}, 5_s);
  EXPECT_DOUBLE_EQ(lin.speed_bound(0_s), 5.0);  // also before it starts
  EXPECT_DOUBLE_EQ(lin.speed_bound(100_s), 5.0);
  EXPECT_DOUBLE_EQ(BounceMobility({0, 0}, {100, 0}, 10.0).speed_bound(7_s),
                   10.0);
}

TEST(SpeedBound, WaypointUsesRoundedDurationsAndFallsToZeroAtTheEnd) {
  // 1/3 m at 1 m/s rounds to 333333333 ns, so the host actually moves a
  // little faster than the requested speed.
  WaypointMobility m({0, 0}, {{{1.0 / 3, 0}, 1.0}, {{1.0 / 3, 2}, 0.5}});
  const SimTime end = SimTime::nanos(333'333'333) + 4_s;
  EXPECT_GT(m.speed_bound(0_s), 1.0);
  EXPECT_LT(m.speed_bound(0_s), 1.0 + 1e-8);
  EXPECT_EQ(m.speed_bound(end - 1_ns), m.speed_bound(0_s));
  EXPECT_EQ(m.speed_bound(end), 0.0);  // frozen from the last segment's end
  EXPECT_EQ(m.speed_bound(100_s), 0.0);
  EXPECT_EQ(WaypointMobility({3, 4}, {}).speed_bound(0_s), 0.0);
}

TEST(SpeedBound, ZeroSpeedLegIsATeleport) {
  // A leg with speed 0 takes no time: the host jumps, so no finite bound
  // holds until the walk's last segment has ended.
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}, {{50, 0}, 0.0}, {{50, 10}, 10.0}});
  EXPECT_EQ(m.position(1_s), (Vec2{50, 0}));
  EXPECT_EQ(m.speed_bound(0_s), std::numeric_limits<double>::infinity());
  EXPECT_EQ(m.speed_bound(1500_ms), std::numeric_limits<double>::infinity());
  EXPECT_EQ(m.speed_bound(2_s), 0.0);
  // A zero-speed leg that goes nowhere is not a jump.
  WaypointMobility still({0, 0}, {{{0, 0}, 0.0}, {{10, 0}, 10.0}});
  EXPECT_DOUBLE_EQ(still.speed_bound(0_s), 10.0);
}

}  // namespace
}  // namespace fhmip
