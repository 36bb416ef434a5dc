#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fhmip {
namespace {

using namespace timeliterals;

PacketPtr flow_packet(Simulation& sim, FlowId flow) {
  auto p = make_packet(sim, {1, 1}, {2, 2}, 100);
  p->flow = flow;
  p->seq = 7;
  return p;
}

TEST(SimulationDrop, CountsOneDropForTheFlowAndReason) {
  Simulation sim;
  sim.drop(flow_packet(sim, 3), DropReason::kQueueOverflow, "l0>");
  const FlowCounters& c = sim.stats().flow(3);
  EXPECT_EQ(c.dropped, 1u);
  for (int r = 0; r < kNumDropReasons; ++r) {
    EXPECT_EQ(c.drops_by_reason[r],
              r == static_cast<int>(DropReason::kQueueOverflow) ? 1u : 0u)
        << to_string(static_cast<DropReason>(r));
  }
  EXPECT_EQ(sim.stats().totals().dropped, 1u);
  EXPECT_EQ(sim.packet_pool().live(), 0u);  // the packet died in the call
}

TEST(SimulationDrop, EmitsOneDropEventToEverySink) {
  Simulation sim;
  std::vector<TraceEvent> first, second;
  sim.trace().add_sink([&](const TraceEvent& e) { first.push_back(e); });
  sim.trace().add_sink([&](const TraceEvent& e) { second.push_back(e); });
  sim.scheduler().run_until(5_ms);
  auto p = flow_packet(sim, 1);
  const std::uint64_t uid = p->uid;
  sim.drop(std::move(p), DropReason::kUnattached, "nar");
  for (const auto* events : {&first, &second}) {
    ASSERT_EQ(events->size(), 1u);
    const TraceEvent& e = events->front();
    EXPECT_EQ(e.kind, TraceKind::kDrop);
    EXPECT_EQ(e.uid, uid);
    EXPECT_STREQ(e.where, "nar");
    EXPECT_EQ(e.reason, DropReason::kUnattached);
    EXPECT_EQ(e.at, 5_ms);
    EXPECT_EQ(e.flow, 1);
    EXPECT_EQ(e.seq, 7u);
    EXPECT_EQ(e.bytes, 100u);
    EXPECT_STREQ(e.msg, "data");
  }
}

TEST(SimulationDrop, EmitsNothingWithoutASink) {
  Simulation sim;
  int seen = 0;
  const auto id = sim.trace().add_sink([&](const TraceEvent&) { ++seen; });
  sim.trace().remove_sink(id);
  sim.drop(flow_packet(sim, 1), DropReason::kNoRoute, "ar");
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(sim.stats().flow(1).dropped, 1u);  // still counted
}

TEST(SimulationDrop, WritesOneDebugLine) {
  Simulation sim;
  std::vector<std::string> lines;
  sim.logger().set_sink([&](LogLevel level, SimTime, const std::string& m) {
    EXPECT_EQ(level, LogLevel::kDebug);
    lines.push_back(m);
  });
  sim.drop(flow_packet(sim, 1), DropReason::kNoRoute, "ar");
  EXPECT_TRUE(lines.empty());  // below the default level
  sim.logger().set_level(LogLevel::kDebug);
  auto p = flow_packet(sim, 1);
  const std::string uid = std::to_string(p->uid);
  sim.drop(std::move(p), DropReason::kNoRoute, "ar");
  ASSERT_EQ(lines.size(), 1u);
  const std::string dst = Address{2, 2}.to_string();
  EXPECT_EQ(lines[0], "ar dropped data uid=" + uid + " seq=7 dst=" + dst +
                          " (" + to_string(DropReason::kNoRoute) + ")");
}

}  // namespace
}  // namespace fhmip
