#include "buffer/policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

namespace fhmip {
namespace {

BufferSchemeConfig dual_classified() {
  BufferSchemeConfig cfg;
  cfg.mode = BufferMode::kDual;
  cfg.classify = true;
  return cfg;
}

TEST(AllocationCase, Numbering) {
  // Table 3.2: case 1 = both yes ... case 4 = both no.
  EXPECT_EQ((AllocationCase{true, true}).case_number(), 1);
  EXPECT_EQ((AllocationCase{true, false}).case_number(), 2);
  EXPECT_EQ((AllocationCase{false, true}).case_number(), 3);
  EXPECT_EQ((AllocationCase{false, false}).case_number(), 4);
}

/// Table 3.3, row by row: (case, class) -> operation.
struct Table33Row {
  Table33Row(bool nar_yes, bool par_yes, TrafficClass traffic_class,
             BufferAction action)
      : nar(nar_yes), par(par_yes), cls(traffic_class), expected(action) {}

  bool nar;
  bool par;
  TrafficClass cls;
  // Occupies the byte that would otherwise be padding. gtest prints a
  // parameter without operator<< as its raw bytes and ctest names each case
  // after that text, so an uninitialized padding byte made the case names
  // change from one build to the next.
  std::uint8_t reserved = 0;
  BufferAction expected;
};
static_assert(sizeof(Table33Row) == 8, "Table33Row must have no padding");

class Table33 : public ::testing::TestWithParam<Table33Row> {};

TEST_P(Table33, MatchesThesis) {
  const Table33Row row = GetParam();
  EXPECT_EQ(decide_buffering(dual_classified(), {row.nar, row.par}, row.cls),
            row.expected)
      << "case " << AllocationCase{row.nar, row.par}.case_number() << " class "
      << to_string(row.cls);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, Table33,
    ::testing::Values(
        // Case 1: NAR yes, PAR yes.
        Table33Row{true, true, TrafficClass::kRealTime,
                   BufferAction::kBufferAtNar},
        Table33Row{true, true, TrafficClass::kHighPriority,
                   BufferAction::kBufferAtBoth},
        Table33Row{true, true, TrafficClass::kBestEffort,
                   BufferAction::kBufferAtParIfHeadroom},
        // Case 2: NAR yes, PAR no.
        Table33Row{true, false, TrafficClass::kRealTime,
                   BufferAction::kBufferAtNar},
        Table33Row{true, false, TrafficClass::kHighPriority,
                   BufferAction::kBufferAtNar},
        Table33Row{true, false, TrafficClass::kBestEffort,
                   BufferAction::kForwardOnly},
        // Case 3: NAR no, PAR yes.
        Table33Row{false, true, TrafficClass::kRealTime,
                   BufferAction::kForwardOnly},
        Table33Row{false, true, TrafficClass::kHighPriority,
                   BufferAction::kBufferAtPar},
        Table33Row{false, true, TrafficClass::kBestEffort,
                   BufferAction::kBufferAtParIfHeadroom},
        // Case 4: NAR no, PAR no.
        Table33Row{false, false, TrafficClass::kRealTime,
                   BufferAction::kForwardOnly},
        Table33Row{false, false, TrafficClass::kHighPriority,
                   BufferAction::kForwardOnly},
        Table33Row{false, false, TrafficClass::kBestEffort,
                   BufferAction::kDrop}));

TEST(Policy, UnspecifiedClassTreatedAsBestEffort) {
  // Table 3.1 value 0: "not specified, treated as best effort packets".
  for (bool nar : {false, true}) {
    for (bool par : {false, true}) {
      EXPECT_EQ(decide_buffering(dual_classified(), {nar, par},
                                 TrafficClass::kUnspecified),
                decide_buffering(dual_classified(), {nar, par},
                                 TrafficClass::kBestEffort));
    }
  }
}

TEST(Policy, ClassificationDisabledUsesDualPathForAll) {
  BufferSchemeConfig cfg = dual_classified();
  cfg.classify = false;
  for (TrafficClass c :
       {TrafficClass::kRealTime, TrafficClass::kHighPriority,
        TrafficClass::kBestEffort, TrafficClass::kUnspecified}) {
    EXPECT_EQ(decide_buffering(cfg, {true, true}, c),
              BufferAction::kBufferAtBoth);
    EXPECT_EQ(decide_buffering(cfg, {true, false}, c),
              BufferAction::kBufferAtNar);
    EXPECT_EQ(decide_buffering(cfg, {false, true}, c),
              BufferAction::kBufferAtPar);
    EXPECT_EQ(decide_buffering(cfg, {false, false}, c),
              BufferAction::kForwardOnly);
  }
}

TEST(Policy, NoneModeNeverBuffers) {
  BufferSchemeConfig cfg;
  cfg.mode = BufferMode::kNone;
  for (bool nar : {false, true}) {
    for (bool par : {false, true}) {
      for (TrafficClass c : {TrafficClass::kRealTime,
                             TrafficClass::kBestEffort}) {
        EXPECT_EQ(decide_buffering(cfg, {nar, par}, c),
                  BufferAction::kForwardOnly);
      }
    }
  }
}

TEST(Policy, NarOnlyModeMatchesOriginalFastHandover) {
  BufferSchemeConfig cfg;
  cfg.mode = BufferMode::kNarOnly;
  EXPECT_EQ(decide_buffering(cfg, {true, true}, TrafficClass::kBestEffort),
            BufferAction::kBufferAtNar);
  EXPECT_EQ(decide_buffering(cfg, {false, true}, TrafficClass::kRealTime),
            BufferAction::kForwardOnly);
}

TEST(Policy, ParOnlyMode) {
  BufferSchemeConfig cfg;
  cfg.mode = BufferMode::kParOnly;
  EXPECT_EQ(decide_buffering(cfg, {true, true}, TrafficClass::kRealTime),
            BufferAction::kBufferAtPar);
  EXPECT_EQ(decide_buffering(cfg, {true, false}, TrafficClass::kRealTime),
            BufferAction::kForwardOnly);
}

TEST(Policy, ModeAndActionNames) {
  EXPECT_STREQ(to_string(BufferMode::kDual), "dual");
  EXPECT_STREQ(to_string(BufferMode::kNone), "none");
  EXPECT_STREQ(to_string(BufferAction::kBufferAtBoth), "buffer-at-both");
  EXPECT_STREQ(to_string(BufferAction::kDrop), "drop");
}

}  // namespace
}  // namespace fhmip
