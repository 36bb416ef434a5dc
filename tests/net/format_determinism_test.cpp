#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "stats/flow_table.hpp"

namespace fhmip {
namespace {

// DET-02 regression: every human-readable dump of an unordered container
// must be independent of insertion order and hash-table layout. Each test
// builds the same logical state through two different mutation histories
// (ascending vs. descending inserts plus add/remove churn, which leaves
// the two tables with different bucket layouts) and requires byte-equal
// output.

Route noop_route() {
  return Route::to([](PacketPtr) {});
}

TEST(FormatDeterminism, RoutingTableIgnoresInsertionOrderAndRehash) {
  RoutingTable fwd;
  RoutingTable rev;
  for (std::uint32_t i = 0; i < 64; ++i) {
    fwd.set_host_route(Address{10 + i, 1 + i}, noop_route());
    fwd.set_prefix_route(100 + i, noop_route());
  }
  // Reverse order, with churn: transient routes force extra growth and
  // tombstone history, so rev's buckets differ from fwd's.
  for (std::uint32_t i = 64; i-- > 0;) {
    rev.set_host_route(Address{200 + i, 9}, noop_route());
    rev.set_prefix_route(100 + i, noop_route());
    rev.set_host_route(Address{10 + i, 1 + i}, noop_route());
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    rev.remove_host_route(Address{200 + i, 9});
  }
  fwd.set_default_route(noop_route());
  rev.set_default_route(noop_route());

  ASSERT_EQ(fwd.num_host_routes(), rev.num_host_routes());
  EXPECT_FALSE(fwd.format_table().empty());
  EXPECT_EQ(fwd.format_table(), rev.format_table());
}

TEST(FormatDeterminism, FlowTableIgnoresRecordingOrder) {
  Simulation sim_a;
  Simulation sim_b;
  sim_a.stats().set_keep_samples(true);
  sim_b.stats().set_keep_samples(true);
  for (FlowId f = 1; f <= 8; ++f) {
    sim_a.stats().record_sent(f);
    sim_a.stats().record_delivery(f, SimTime::millis(10 * f), /*seq=*/0,
                                  SimTime::millis(f), 160);
  }
  for (FlowId f = 8; f >= 1; --f) {
    sim_b.stats().record_sent(f);
    sim_b.stats().record_delivery(f, SimTime::millis(10 * f), /*seq=*/0,
                                  SimTime::millis(f), 160);
  }
  const std::string a = flow_table(sim_a.stats()).render();
  const std::string b = flow_table(sim_b.stats()).render();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fhmip
