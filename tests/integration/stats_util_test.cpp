#include <gtest/gtest.h>

#include "obs/timeline.hpp"
#include "stats/handover_outcomes.hpp"
#include "stats/recorder.hpp"
#include "stats/table.hpp"

namespace fhmip {
namespace {

TEST(Series, CollectsPointsAndExtremes) {
  Series s("F1");
  EXPECT_TRUE(s.empty());
  s.add(1, 10);
  s.add(2, 30);
  s.add(3, 20);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.max_y(), 30);
  EXPECT_DOUBLE_EQ(s.min_y(), 10);
  EXPECT_DOUBLE_EQ(s.last_y(), 20);
  EXPECT_EQ(s.name(), "F1");
}

TEST(Series, EmptyExtremesAreZero) {
  Series s("x");
  EXPECT_DOUBLE_EQ(s.max_y(), 0);
  EXPECT_DOUBLE_EQ(s.min_y(), 0);
  EXPECT_DOUBLE_EQ(s.last_y(), 0);
}

TEST(BinThroughput, BinsBytesIntoMbps) {
  // 125'000 bytes in one 1-second bin = 1 Mbit/s.
  std::vector<std::pair<double, std::uint64_t>> arrivals{
      {0.2, 62'500}, {0.7, 62'500}, {1.5, 125'000}};
  const Series s = bin_throughput("thr", arrivals, 1.0, 0.0, 2.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points()[0].first, 0.5);   // bin midpoint
  EXPECT_DOUBLE_EQ(s.points()[0].second, 1.0);  // Mbit/s
  EXPECT_DOUBLE_EQ(s.points()[1].second, 1.0);
}

TEST(BinThroughput, IgnoresOutOfRangeArrivals) {
  std::vector<std::pair<double, std::uint64_t>> arrivals{
      {-1.0, 999'999}, {5.0, 999'999}, {0.5, 125'000}};
  const Series s = bin_throughput("thr", arrivals, 1.0, 0.0, 1.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.points()[0].second, 1.0);
}

TEST(BinThroughput, DegenerateInputsYieldEmpty) {
  EXPECT_TRUE(bin_throughput("x", {}, 0.0, 0.0, 1.0).empty());
  EXPECT_TRUE(bin_throughput("x", {}, 1.0, 2.0, 1.0).empty());
}

TEST(BinThroughput, EmptyBinsAreZero) {
  std::vector<std::pair<double, std::uint64_t>> arrivals{{0.5, 125'000}};
  const Series s = bin_throughput("thr", arrivals, 1.0, 0.0, 3.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[1].second, 0.0);
  EXPECT_DOUBLE_EQ(s.points()[2].second, 0.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 95), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1);
}

TEST(Percentile, UnsortedInputAndEmpty) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 50), 3);
  EXPECT_DOUBLE_EQ(percentile({42}, 99), 42);
}

TEST(DelaySummary, OrderStatistics) {
  std::vector<DeliverySample> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back({SimTime::seconds(i), static_cast<std::uint32_t>(i),
                       SimTime::millis(i)});
  }
  const DelaySummary s = summarize_delays(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 0.0505, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.p50, 0.050);
  EXPECT_DOUBLE_EQ(s.p95, 0.095);
  EXPECT_DOUBLE_EQ(s.p99, 0.099);
  EXPECT_DOUBLE_EQ(s.max, 0.100);
}

TEST(DelaySummary, EmptyInput) {
  const DelaySummary s = summarize_delays({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.jitter, 0);
}

TEST(DelaySummary, JitterIsMeanConsecutiveDeviation) {
  // Delays alternate 10 ms / 20 ms: every consecutive difference is 10 ms.
  std::vector<DeliverySample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back({SimTime::seconds(i), static_cast<std::uint32_t>(i),
                       SimTime::millis(i % 2 == 0 ? 10 : 20)});
  }
  EXPECT_NEAR(summarize_delays(samples).jitter, 0.010, 1e-12);
}

TEST(DelaySummary, ConstantDelayHasZeroJitter) {
  std::vector<DeliverySample> samples;
  for (int i = 0; i < 5; ++i) {
    samples.push_back({SimTime::seconds(i), static_cast<std::uint32_t>(i),
                       SimTime::millis(15)});
  }
  EXPECT_DOUBLE_EQ(summarize_delays(samples).jitter, 0);
  EXPECT_DOUBLE_EQ(summarize_delays(samples).p50, 0.015);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  // Separator line present.
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, HandlesShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  const std::string out = t.render();
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(HandoverOutcomes, CountsAndFormatsPerCause) {
  obs::HandoverTimeline tl;
  tl.resolve(SimTime::seconds(1), 1, HandoverOutcome::kPredictive,
             HandoverCause::kNone);
  tl.resolve(SimTime::seconds(2), 1, HandoverOutcome::kReactive,
             HandoverCause::kNotAnticipated);
  tl.resolve(SimTime::seconds(3), 2, HandoverOutcome::kReactive,
             HandoverCause::kNoPrRtAdv);
  tl.resolve(SimTime::seconds(4), 2, HandoverOutcome::kFailed,
             HandoverCause::kNoFback);
  const HandoverOutcomeRecorder& rec = tl.outcomes();
  EXPECT_EQ(rec.attempts(), 4u);
  EXPECT_EQ(rec.completed(), 3u);
  EXPECT_EQ(rec.count(HandoverOutcome::kReactive), 2u);
  EXPECT_EQ(rec.count(HandoverCause::kNoPrRtAdv), 1u);
  EXPECT_DOUBLE_EQ(rec.success_rate(), 0.75);
  const std::string table = rec.format_table("outcomes");
  EXPECT_NE(table.find("predictive"), std::string::npos);
  EXPECT_NE(table.find("cause/not-anticipated"), std::string::npos);
  EXPECT_NE(table.find("cause/no-fback"), std::string::npos);
  EXPECT_NE(table.find("75.00%"), std::string::npos);
}

}  // namespace
}  // namespace fhmip
