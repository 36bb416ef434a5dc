#include "mip/map_agent.hpp"

#include <gtest/gtest.h>

#include "mip/mobile_ip.hpp"
#include "net/network.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// cn --- map --- ar --- mh-ish leaf (plays the attached mobile host).
struct MapFixture : ::testing::Test {
  Simulation sim;
  Network net{sim};
  Node& cn = net.add_node("cn");
  Node& map_node = net.add_node("map");
  Node& ar = net.add_node("ar");
  Node& mh = net.add_node("mh");
  std::unique_ptr<MapAgent> map;

  Address regional() { return {30, mh.id()}; }
  Address lcoa() { return {40, mh.id()}; }

  MapFixture() {
    cn.add_address({10, 1});
    map_node.add_address({30, 1});
    ar.add_address({40, 1});
    net.connect(cn, map_node, 1e9, 1_ms);
    DuplexLink& l = net.connect(map_node, ar, 1e9, 1_ms);
    DuplexLink& w = net.connect(ar, mh, 1e9, 1_ms);
    net.compute_routes();
    (void)l;
    // The AR forwards anything in its subnet down to the leaf.
    ar.routes().set_prefix_route(40, Route::via(w.toward(mh)));
    mh.routes().set_default_route(Route::via(w.toward(ar)));
    mh.add_address(regional(), false);
    mh.add_address(lcoa(), false);
    map = std::make_unique<MapAgent>(map_node);
  }
};

TEST_F(MapFixture, UnboundRegionalAddressDrops) {
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  p->flow = 1;
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(sim.stats().flow(1).drops_by_reason[static_cast<int>(
                DropReason::kNoRoute)],
            1u);
}

TEST_F(MapFixture, BindingUpdateEnablesTunneling) {
  MobileIpClient mip(mh, regional(), map->address());
  mip.send_binding_update(lcoa(), 60_s);
  sim.run();
  EXPECT_EQ(map->binding_updates(), 1u);
  EXPECT_EQ(mip.acks_received(), 1u);
  EXPECT_TRUE(mip.bound());

  int got = 0;
  mh.register_port(7, [&](PacketPtr p) {
    ++got;
    EXPECT_EQ(p->dst, regional());  // decapsulated back to the inner address
    EXPECT_FALSE(p->tunneled());
  });
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  p->dst_port = 7;
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(map->packets_tunneled(), 1u);
}

TEST_F(MapFixture, RebindingMovesTraffic) {
  MobileIpClient mip(mh, regional(), map->address());
  mip.send_binding_update(lcoa(), 60_s);
  sim.run();
  // Re-bind to a different (unreachable) LCoA: traffic should now miss.
  mip.send_binding_update({50, mh.id()}, 60_s);
  sim.run();
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  p->flow = 2;
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(sim.stats().flow(2).delivered, 0u);
  EXPECT_EQ(map->bindings().lookup(regional(), sim.now()),
            (Address{50, mh.id()}));
}

TEST_F(MapFixture, MapAddressItselfStillReachable) {
  // The prefix interception must not swallow packets for the MAP itself.
  int got = 0;
  map_node.register_port(7, [&](PacketPtr) { ++got; });
  auto p = make_packet(sim, {10, 1}, {30, 1}, 100);
  p->dst_port = 7;
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(MapFixture, BindingLifetimeExpires) {
  MobileIpClient mip(mh, regional(), map->address());
  mip.send_binding_update(lcoa(), 1_s);
  sim.run();
  sim.scheduler().run_until(5_s);
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  p->flow = 3;
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(sim.stats().flow(3).delivered, 0u);
}

TEST_F(MapFixture, SimultaneousBindingBicasts) {
  MobileIpClient mip(mh, regional(), map->address());
  mip.send_binding_update(lcoa(), 60_s);
  sim.run();
  // Secondary binding to a second (unreachable here) care-of address.
  mip.send_simultaneous_binding({50, mh.id()}, 60_s);
  sim.run();
  int got = 0;
  mh.register_port(7, [&](PacketPtr) { ++got; });
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  p->dst_port = 7;
  p->flow = 1;
  sim.stats().record_sent(1);
  cn.send(std::move(p));
  sim.run();
  // Primary copy delivered; the bicast copy went toward net 50 (no route,
  // dropped) — one packet sent, two copies emitted by the MAP.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(map->packets_bicast(), 1u);
  EXPECT_EQ(map->packets_tunneled(), 1u);
}

TEST_F(MapFixture, OrdinaryUpdateClearsSecondaryBinding) {
  MobileIpClient mip(mh, regional(), map->address());
  mip.send_binding_update(lcoa(), 60_s);
  mip.send_simultaneous_binding({50, mh.id()}, 60_s);
  sim.run();
  const BindingEntry* b = map->bindings().find(regional(), sim.now());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->live_secondary(sim.now()), (Address{50, mh.id()}));
  mip.send_binding_update(lcoa(), 60_s);  // e.g. after attach completes
  sim.run();
  b = map->bindings().find(regional(), sim.now());
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->live_secondary(sim.now()).has_value());
  auto p = make_packet(sim, {10, 1}, regional(), 100);
  cn.send(std::move(p));
  sim.run();
  EXPECT_EQ(map->packets_bicast(), 0u);
}

TEST_F(MapFixture, BindingAckCallback) {
  MobileIpClient mip(mh, regional(), map->address());
  int acks = 0;
  mip.set_on_binding_ack([&] { ++acks; });
  mip.send_binding_update(lcoa(), 60_s);
  sim.run();
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(mip.updates_sent(), 1u);
}

TEST_F(MapFixture, DestroyedClientLeavesNoDanglingHandler) {
  // Regression: MobileIpClient registers a this-capturing control handler
  // on its node; destroying a client used to leave the handler behind, and
  // the next binding ack ran it on freed memory (heap-use-after-free under
  // ASan) instead of reaching the live client.
  auto gone = std::make_unique<MobileIpClient>(mh, regional(), map->address());
  gone->send_binding_update(lcoa(), 60_s);
  sim.run();
  gone.reset();
  MobileIpClient mip(mh, regional(), map->address());
  int acks = 0;
  mip.set_on_binding_ack([&] { ++acks; });
  mip.send_binding_update(lcoa(), 60_s);
  sim.run();  // the ack must reach the live client only
  EXPECT_EQ(acks, 1);
}

}  // namespace
}  // namespace fhmip
