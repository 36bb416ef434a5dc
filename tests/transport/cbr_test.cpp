#include "transport/cbr.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

struct CbrFixture : ::testing::Test {
  Simulation sim;
  Network net{sim};
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");

  CbrFixture() {
    a.add_address({1, 1});
    b.add_address({2, 1});
    net.connect(a, b, 1e9, 1_ms);
    net.compute_routes();
  }

  CbrSource::Config audio() {
    CbrSource::Config c;
    c.dst = {2, 1};
    c.dst_port = 7000;
    c.packet_bytes = 160;
    c.interval = 20_ms;
    c.flow = 1;
    return c;
  }
};

TEST_F(CbrFixture, EmitsAtConfiguredRate) {
  UdpSink sink(b, 7000);
  CbrSource src(a, 5000, audio());
  src.start(1_s);
  src.stop(3_s);
  sim.run_until(4_s);
  // 2 s at 50 packets/s.
  EXPECT_EQ(sink.packets_received(), 100u);
  EXPECT_EQ(src.packets_sent(), 100u);
}

TEST_F(CbrFixture, SequenceNumbersAreConsecutive) {
  std::vector<std::uint32_t> seqs;
  UdpAgent rx(b, 7000);
  rx.set_receive_callback([&](PacketPtr p) { seqs.push_back(p->seq); });
  CbrSource src(a, 5000, audio());
  src.start(0_s);
  src.stop(200_ms);
  sim.run_until(1_s);
  ASSERT_EQ(seqs.size(), 10u);
  for (std::uint32_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(CbrFixture, CarriesTrafficClass) {
  auto cfg = audio();
  cfg.tclass = TrafficClass::kHighPriority;
  TrafficClass seen = TrafficClass::kUnspecified;
  UdpAgent rx(b, 7000);
  rx.set_receive_callback([&](PacketPtr p) { seen = p->tclass; });
  CbrSource src(a, 5000, cfg);
  src.start(0_s);
  src.stop(30_ms);
  sim.run();
  EXPECT_EQ(seen, TrafficClass::kHighPriority);
}

TEST_F(CbrFixture, RateHelperMatchesPaperWorkloads) {
  // 160 B every 20 ms = 64 kb/s (§4.2.1); every 10 ms = 128 kb/s (§4.2.3).
  EXPECT_EQ(CbrSource::interval_for_rate(64, 160), 20_ms);
  EXPECT_EQ(CbrSource::interval_for_rate(128, 160), 10_ms);
  EXPECT_EQ(CbrSource::interval_for_rate(426.7, 160),
            SimTime::nanos(2'999'766));
}

TEST_F(CbrFixture, StopNowHaltsImmediately) {
  UdpSink sink(b, 7000);
  CbrSource src(a, 5000, audio());
  src.start(0_s);
  sim.run_until(100_ms);
  src.stop_now();
  const auto got = sink.packets_received();
  sim.run_until(1_s);
  // At most one more packet (the one already in flight).
  EXPECT_LE(sink.packets_received(), got + 1);
}

TEST_F(CbrFixture, DestroyedWhileArmedRunsNothing) {
  UdpSink sink(b, 7000);
  {
    CbrSource src(a, 5000, audio());
    src.start(0_s);
    src.stop(1_s);
    // Emits at 0 and 20 ms; the second packet is on the 1 ms link and the
    // next emit is armed for 40 ms.
    sim.run_until(SimTime::micros(20'500));
    EXPECT_EQ(src.packets_sent(), 2u);
  }
  // The emit timer went with the source and its stop event was cancelled;
  // only the second packet's delivery (the link's timer) is left.
  EXPECT_EQ(sim.scheduler().queue_size(), 1u);
  EXPECT_EQ(sim.scheduler().run(), 1u);
  EXPECT_EQ(sink.packets_received(), 2u);
  EXPECT_EQ(sim.scheduler().queue_size(), 0u);
  sim.scheduler().audit_invariants();
}

TEST_F(CbrFixture, JitterVariesGapsButPreservesMeanRate) {
  std::vector<SimTime> arrivals;
  UdpAgent rx(b, 7000);
  rx.set_receive_callback(
      [&](PacketPtr) { arrivals.push_back(sim.now()); });
  auto cfg = audio();
  cfg.jitter = 5_ms;
  CbrSource src(a, 5000, cfg);
  src.start(0_s);
  src.stop(10_s);
  sim.run_until(11_s);
  // Mean rate stays ~50 p/s.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 500.0, 25.0);
  // Gaps actually vary.
  SimTime min_gap = SimTime::seconds(99), max_gap;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const SimTime gap = arrivals[i] - arrivals[i - 1];
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  EXPECT_LT(min_gap, 18_ms);
  EXPECT_GT(max_gap, 22_ms);
}

TEST_F(CbrFixture, RecordsSentStatistics) {
  UdpSink sink(b, 7000);
  CbrSource src(a, 5000, audio());
  src.start(0_s);
  src.stop(100_ms);
  sim.run_until(1_s);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, 5u);
  EXPECT_EQ(c.delivered, 5u);
  EXPECT_EQ(c.in_flight(), 0u);
}

}  // namespace
}  // namespace fhmip
