#include "net/routing.hpp"

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/node.hpp"

namespace fhmip {
namespace {

struct RoutingFixture : ::testing::Test {
  Simulation sim;
  Node n{sim, 1, "n"};
  SimplexLink l1{sim, n, 1e6, SimTime::millis(1), 10};
  SimplexLink l2{sim, n, 1e6, SimTime::millis(1), 10};
};

TEST_F(RoutingFixture, EmptyTableHasNoRoute) {
  RoutingTable t;
  EXPECT_EQ(t.lookup({1, 2}), nullptr);
}

TEST_F(RoutingFixture, PrefixRouteMatchesNet) {
  RoutingTable t;
  t.set_prefix_route(5, Route::via(l1));
  const Route* r = t.lookup({5, 99});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->link, &l1);
  EXPECT_EQ(t.lookup({6, 99}), nullptr);
}

TEST_F(RoutingFixture, HostRouteBeatsPrefixRoute) {
  RoutingTable t;
  t.set_prefix_route(5, Route::via(l1));
  t.set_host_route({5, 7}, Route::via(l2));
  EXPECT_EQ(t.lookup({5, 7})->link, &l2);
  EXPECT_EQ(t.lookup({5, 8})->link, &l1);
}

TEST_F(RoutingFixture, DefaultRouteIsLastResort) {
  RoutingTable t;
  t.set_default_route(Route::via(l1));
  t.set_prefix_route(5, Route::via(l2));
  EXPECT_EQ(t.lookup({9, 1})->link, &l1);
  EXPECT_EQ(t.lookup({5, 1})->link, &l2);
}

TEST_F(RoutingFixture, HandlerRoutesInvokeCallback) {
  RoutingTable t;
  bool called = false;
  t.set_host_route({5, 7}, Route::to([&](PacketPtr) { called = true; }));
  const Route* r = t.lookup({5, 7});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->link, nullptr);
  r->handler(make_packet(sim, {1, 1}, {5, 7}, 10));
  EXPECT_TRUE(called);
}

TEST_F(RoutingFixture, RemoveHostRouteFallsBackToPrefix) {
  RoutingTable t;
  t.set_prefix_route(5, Route::via(l1));
  t.set_host_route({5, 7}, Route::via(l2));
  t.remove_host_route({5, 7});
  EXPECT_EQ(t.lookup({5, 7})->link, &l1);
  EXPECT_FALSE(t.has_host_route({5, 7}));
}

TEST_F(RoutingFixture, OverwritingRoutesReplaces) {
  RoutingTable t;
  t.set_prefix_route(5, Route::via(l1));
  t.set_prefix_route(5, Route::via(l2));
  EXPECT_EQ(t.lookup({5, 1})->link, &l2);
}

TEST_F(RoutingFixture, RouteCounts) {
  RoutingTable t;
  t.set_prefix_route(1, Route::via(l1));
  t.set_host_route({1, 1}, Route::via(l1));
  t.set_host_route({1, 2}, Route::via(l1));
  EXPECT_EQ(t.num_prefix_routes(), 1u);
  EXPECT_EQ(t.num_host_routes(), 2u);
  t.clear_prefix_routes();
  EXPECT_EQ(t.num_prefix_routes(), 0u);
}

TEST_F(RoutingFixture, TableWithoutHostRoutesStillMatchesPrefixAndDefault) {
  RoutingTable t;
  t.set_prefix_route(5, Route::via(l1));
  t.set_default_route(Route::via(l2));
  t.set_host_route({5, 7}, Route::via(l2));
  t.remove_host_route({5, 7});
  ASSERT_EQ(t.num_host_routes(), 0u);
  EXPECT_EQ(t.lookup({5, 7})->link, &l1);
  EXPECT_EQ(t.lookup({6, 7})->link, &l2);
}

TEST_F(RoutingFixture, HandlerEditingItsOwnTableDuringDispatchNeverMoves) {
  // A handler route that, while it runs, adds enough host routes to grow
  // the table several times and removes half of them again (the NAR's
  // PCoA handler edits its own router's table the same way).
  struct Ctx {
    RoutingTable t;
    SimplexLink* link = nullptr;
    int calls = 0;
    const Route* self_after = nullptr;
  } ctx;
  ctx.link = &l1;
  Ctx* c = &ctx;  // a one-pointer capture lives inside the Route itself
  ctx.t.set_host_route({5, 7}, Route::to([c](PacketPtr) {
    for (std::uint32_t h = 100; h < 400; ++h) {
      c->t.set_host_route({5, h}, Route::via(*c->link));
    }
    for (std::uint32_t h = 100; h < 400; h += 2) {
      c->t.remove_host_route({5, h});
    }
    ++c->calls;
    c->self_after = c->t.lookup({5, 7});
  }));
  const Route* self = ctx.t.lookup({5, 7});
  ASSERT_NE(self, nullptr);
  self->handler(make_packet(sim, {1, 1}, {5, 7}, 10));
  EXPECT_EQ(ctx.calls, 1);
  EXPECT_EQ(ctx.self_after, self);  // the running Route did not move
  EXPECT_EQ(ctx.t.lookup({5, 7}), self);
  EXPECT_EQ(ctx.t.num_host_routes(), 1u + 150u);
  for (std::uint32_t h = 100; h < 400; ++h) {
    EXPECT_EQ(ctx.t.has_host_route({5, h}), h % 2 == 1) << h;
  }
  // It still dispatches after all that.
  self->handler(make_packet(sim, {1, 1}, {5, 7}, 10));
  EXPECT_EQ(ctx.calls, 2);
}

TEST_F(RoutingFixture, RouteValidity) {
  Route none;
  EXPECT_FALSE(none.valid());
  EXPECT_TRUE(Route::via(l1).valid());
  EXPECT_TRUE(Route::to([](PacketPtr) {}).valid());
}

}  // namespace
}  // namespace fhmip
