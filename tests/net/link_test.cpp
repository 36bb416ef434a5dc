#include "net/link.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/node.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

struct LinkFixture : ::testing::Test {
  Simulation sim;
  Node a{sim, 1, "a"};
  Node b{sim, 2, "b"};

  std::vector<SimTime> arrivals;
  std::vector<std::pair<Node*, std::uint16_t>> captures_;

  void capture(Node& n, std::uint16_t port = 9) {
    n.add_address({static_cast<std::uint32_t>(n.id() * 10), 1});
    n.register_port(port, [this](PacketPtr) { arrivals.push_back(sim.now()); });
    captures_.emplace_back(&n, port);
  }

  ~LinkFixture() override {
    for (auto& [n, port] : captures_) n->unregister_port(port);
  }

  PacketPtr pkt(std::uint32_t bytes = 1000) {
    auto p = make_packet(sim, {10, 1}, {20, 1}, bytes);
    p->dst_port = 9;
    p->flow = 1;
    return p;
  }
};

TEST_F(LinkFixture, DeliveryAfterTxPlusPropagation) {
  capture(b);
  SimplexLink link(sim, b, 1e6 /*1 Mb/s*/, 10_ms, 10);
  // 1000 B at 1 Mb/s = 8 ms serialization + 10 ms propagation.
  link.transmit(pkt(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 18_ms);
  EXPECT_EQ(link.packets_delivered(), 1u);
}

TEST_F(LinkFixture, InFlightPacketsReclaimedIfSimulationEnds) {
  // Regression: the link used to hand a released raw pointer to its
  // completion event; tearing the simulation down with packets still in
  // flight leaked them (caught by LeakSanitizer). The link owns packets in
  // flight and in its queue, so destruction reclaims them.
  SimplexLink link(sim, b, 1e6, 10_ms, 10);
  link.transmit(pkt(1000));  // delivery event pending
  link.transmit(pkt(1000));  // sits in the queue
  sim.run_until(9_ms);       // past serialization, before propagation ends
  // Destructor of `sim` (fixture teardown) discards the pending events.
  EXPECT_EQ(link.packets_delivered(), 0u);
}

TEST_F(LinkFixture, TxTimeScalesWithSize) {
  SimplexLink link(sim, b, 8e6, 0_ms, 10);
  EXPECT_EQ(link.tx_time(1000), 1_ms);  // 8000 bits / 8 Mb/s
  EXPECT_EQ(link.tx_time(500), SimTime::micros(500));
}

TEST_F(LinkFixture, SerializationIsSequential) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 0_ms, 10);
  link.transmit(pkt(1000));  // 8 ms each
  link.transmit(pkt(1000));
  link.transmit(pkt(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 8_ms);
  EXPECT_EQ(arrivals[1], 16_ms);
  EXPECT_EQ(arrivals[2], 24_ms);
}

TEST_F(LinkFixture, QueueOverflowDrops) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 0_ms, 2);
  // One transmitting + two queued fit; the fourth drops.
  for (int i = 0; i < 4; ++i) link.transmit(pkt(1000));
  sim.run();
  EXPECT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(link.packets_dropped(), 1u);
  EXPECT_EQ(sim.stats().flow(1).drops_by_reason[static_cast<int>(
                DropReason::kQueueOverflow)],
            1u);
}

TEST_F(LinkFixture, DownLinkDropsNewTransmissions) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  link.set_up(false);
  link.transmit(pkt());
  sim.run();
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(sim.stats().total_drops(DropReason::kWirelessDown), 1u);
}

TEST_F(LinkFixture, DownLinkDropsQueuedButNotInFlight) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 5_ms, 10);
  link.transmit(pkt(1000));  // starts serializing immediately
  link.transmit(pkt(1000));  // queued
  // Take the link down mid-serialization of the first packet: the committed
  // transmission completes (ns-2 semantics), the queued packet dies.
  sim.in(2_ms, [&] { link.set_up(false); });
  sim.run();
  EXPECT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kWirelessDown), 1u);
}

TEST_F(LinkFixture, PacketAtTheInstantTheTransmitterFreesGoesBehindTheQueue) {
  capture(b);
  std::vector<std::uint32_t> seqs;
  b.register_port(8, [&](PacketPtr p) { seqs.push_back(p->seq); });
  SimplexLink link(sim, b, 1e6, 0_ms, 10);
  auto numbered = [&](std::uint32_t seq) {
    auto p = pkt(1000);
    p->dst_port = 8;
    p->seq = seq;
    return p;
  };
  link.transmit(numbered(0));  // serializes over [0, 8) ms
  // Scheduled before packet 1 queues (and so before the drain it arms):
  // runs at 8 ms while packet 1 still waits, and must queue behind it.
  sim.at(8_ms, [&] { link.transmit(numbered(2)); });
  link.transmit(numbered(1));
  sim.run();
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 24_ms);
}

TEST_F(LinkFixture, DownDuringSerializationThenBackUpWaitsForTheTransmitter) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 5_ms, 10);
  link.transmit(pkt(1000));  // serializes over [0, 8) ms, arrives at 13 ms
  link.transmit(pkt(1000));  // queued
  link.transmit(pkt(1000));  // queued
  sim.at(2_ms, [&] { link.set_up(false); });
  // Back up before the first packet's last bit: the transmitter is still
  // busy, so the new packet starts at 8 ms, not at 4 ms.
  sim.at(4_ms, [&] {
    link.set_up(true);
    link.transmit(pkt(1000));
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 13_ms);
  EXPECT_EQ(arrivals[1], 21_ms);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kWirelessDown), 2u);
  EXPECT_EQ(link.packets_dropped(), 2u);
}

TEST_F(LinkFixture, DestroyingALinkCancelsItsArmedDrain) {
  {
    SimplexLink link(sim, b, 1e6, 5_ms, 10);
    link.transmit(pkt(1000));  // delivery event
    link.transmit(pkt(1000));  // queued: arms the drain
    EXPECT_EQ(sim.scheduler().queue_size(), 2u);
  }
  // Only the delivery is left; it is destroyed with `sim`, never run.
  EXPECT_EQ(sim.scheduler().queue_size(), 1u);
}

TEST_F(LinkFixture, OneSchedulerEventPerHopWhenIdle) {
  // A packet that finds the transmitter idle costs exactly one event, its
  // delivery; serialization end is a stored time, not an event.
  capture(b);
  SimplexLink link(sim, b, 1e6, 2_ms, 10);
  constexpr int kPackets = 20;
  for (int i = 0; i < kPackets; ++i) {
    link.transmit(pkt(1000));
    sim.run_until(SimTime::millis(20 * (i + 1)));  // 8 ms tx + 2 ms delay
  }
  EXPECT_EQ(arrivals.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(sim.scheduler().events_executed(),
            static_cast<std::uint64_t>(kPackets));
}

TEST_F(LinkFixture, BackToBackPacketsCostADeliveryEachPlusOneDrainPerQueued) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 2_ms, 32);
  constexpr int kPackets = 20;
  for (int i = 0; i < kPackets; ++i) link.transmit(pkt(1000));
  sim.run();
  EXPECT_EQ(arrivals.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(sim.scheduler().events_executed(),
            static_cast<std::uint64_t>(2 * kPackets - 1));
}

TEST_F(LinkFixture, LinkBackUpResumesDelivery) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 0_ms, 10);
  link.set_up(false);
  sim.in(10_ms, [&] {
    link.set_up(true);
    link.transmit(pkt(1000));
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 18_ms);
}

TEST_F(LinkFixture, RandomLossDropsApproximatelyAtRate) {
  capture(b);
  SimplexLink link(sim, b, 1e9, 0_ms, 10);
  link.set_loss_rate(0.25);
  int sent = 0;
  std::function<void()> pump = [&] {
    if (sent >= 4000) return;
    ++sent;
    link.transmit(pkt(100));
    sim.in(1_ms, pump);
  };
  sim.in(1_ms, pump);
  sim.run();
  const double loss =
      1.0 - static_cast<double>(arrivals.size()) / 4000.0;
  EXPECT_NEAR(loss, 0.25, 0.03);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kRandomLoss),
            4000 - arrivals.size());
}

TEST_F(LinkFixture, ZeroLossRateIsLossless) {
  capture(b);
  SimplexLink link(sim, b, 1e9, 0_ms, 200);
  for (int i = 0; i < 100; ++i) link.transmit(pkt(100));
  sim.run();
  EXPECT_EQ(arrivals.size(), 100u);
}

TEST_F(LinkFixture, PriorityDisciplineReordersByClass) {
  capture(b);
  std::vector<std::uint32_t> seqs;
  b.register_port(8, [&](PacketPtr p) { seqs.push_back(p->seq); });
  SimplexLink link(sim, b, 1e6, 0_ms, 9, "prio",
                   QueueDiscipline::kClassPriority);
  ASSERT_NE(link.priority_queue(), nullptr);
  EXPECT_EQ(link.queue(), nullptr);
  // First packet occupies the transmitter; the rest queue by class.
  auto first = pkt(1000);
  first->dst_port = 8;
  first->seq = 0;
  link.transmit(std::move(first));
  const TrafficClass order[] = {TrafficClass::kBestEffort,
                                TrafficClass::kHighPriority,
                                TrafficClass::kRealTime};
  std::uint32_t seq = 1;
  for (TrafficClass c : order) {
    auto p = pkt(1000);
    p->dst_port = 8;
    p->seq = seq++;
    p->tclass = c;
    link.transmit(std::move(p));
  }
  sim.run();
  // Delivery: 0 (in flight), then RT(3), HP(2), BE(1).
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 3, 2, 1}));
}

TEST_F(LinkFixture, BytesDeliveredAccumulates) {
  capture(b);
  SimplexLink link(sim, b, 1e6, 0_ms, 10);
  link.transmit(pkt(300));
  link.transmit(pkt(200));
  sim.run();
  EXPECT_EQ(link.bytes_delivered(), 500u);
}

TEST_F(LinkFixture, DuplexDirections) {
  capture(a);
  capture(b);
  DuplexLink link(sim, a, b, 1e6, 1_ms, 10, "ab");
  EXPECT_EQ(&link.toward(b), &link.a_to_b());
  EXPECT_EQ(&link.toward(a), &link.b_to_a());
  auto p = make_packet(sim, {20, 1}, {10, 1}, 100);
  p->dst_port = 9;
  link.toward(a).transmit(std::move(p));
  sim.run();
  EXPECT_EQ(arrivals.size(), 1u);
}

}  // namespace
}  // namespace fhmip
