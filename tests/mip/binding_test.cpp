#include "mip/binding.hpp"

#include <gtest/gtest.h>

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(BindingCache, EmptyLookupFails) {
  BindingCache c;
  EXPECT_FALSE(c.lookup({1, 1}, 0_s).has_value());
}

TEST(BindingCache, UpdateAndLookup) {
  BindingCache c;
  c.update({30, 7}, {40, 7}, 0_s, 60_s);
  auto coa = c.lookup({30, 7}, 1_s);
  ASSERT_TRUE(coa.has_value());
  EXPECT_EQ(*coa, (Address{40, 7}));
}

TEST(BindingCache, UpdateReplacesCoa) {
  BindingCache c;
  c.update({30, 7}, {40, 7}, 0_s, 60_s);
  c.update({30, 7}, {50, 7}, 1_s, 60_s);
  EXPECT_EQ(c.lookup({30, 7}, 2_s), (Address{50, 7}));
  EXPECT_EQ(c.size(), 1u);
}

TEST(BindingCache, ExpiryIsLazy) {
  BindingCache c;
  c.update({30, 7}, {40, 7}, 0_s, 10_s);
  EXPECT_TRUE(c.lookup({30, 7}, SimTime::from_millis(9'999)).has_value());
  EXPECT_FALSE(c.lookup({30, 7}, 10_s).has_value());  // boundary exclusive
  EXPECT_FALSE(c.lookup({30, 7}, 11_s).has_value());
}

TEST(BindingCache, ZeroLifetimeDeregisters) {
  // §2.1.1 stage 4: a registration with lifetime zero cancels the binding.
  BindingCache c;
  c.update({30, 7}, {40, 7}, 0_s, 60_s);
  c.update({30, 7}, {40, 7}, 1_s, SimTime{});
  EXPECT_FALSE(c.lookup({30, 7}, 2_s).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(BindingCache, RemoveIsIdempotent) {
  BindingCache c;
  c.remove({30, 7});
  c.update({30, 7}, {40, 7}, 0_s, 60_s);
  c.remove({30, 7});
  c.remove({30, 7});
  EXPECT_EQ(c.size(), 0u);
}

TEST(BindingCache, SecondaryRidesOnALivePrimary) {
  // §3.1.1 simultaneous binding: the secondary alone routes nothing, a
  // zero-lifetime secondary update keeps the primary, and an ordinary
  // update clears the secondary.
  BindingCache c;
  c.update_secondary({30, 7}, {50, 7}, 0_s, 60_s);
  EXPECT_EQ(c.find({30, 7}, 1_s), nullptr);
  c.update({30, 7}, {40, 7}, 1_s, 60_s);
  c.update_secondary({30, 7}, {50, 7}, 1_s, 5_s);
  const BindingEntry* e = c.find({30, 7}, 2_s);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->live_secondary(2_s), (Address{50, 7}));
  EXPECT_FALSE(e->live_secondary(6_s).has_value());  // own expiry
  c.update_secondary({30, 7}, {50, 7}, 2_s, SimTime{});
  e = c.find({30, 7}, 2_s);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->coa, (Address{40, 7}));
  EXPECT_FALSE(e->live_secondary(2_s).has_value());
  c.update_secondary({30, 7}, {50, 7}, 2_s, 60_s);
  c.update({30, 7}, {40, 7}, 3_s, 60_s);
  EXPECT_FALSE(c.find({30, 7}, 3_s)->live_secondary(3_s).has_value());
}

TEST(BindingCache, ZeroLifetimeSecondaryForgetsASecondaryOnlyBinding) {
  BindingCache c;
  c.update_secondary({30, 7}, {50, 7}, 0_s, 60_s);
  EXPECT_EQ(c.size(), 1u);
  c.update_secondary({30, 7}, {50, 7}, 1_s, SimTime{});
  EXPECT_EQ(c.size(), 0u);
}

TEST(BindingCache, IndependentKeys) {
  BindingCache c;
  c.update({30, 1}, {40, 1}, 0_s, 60_s);
  c.update({30, 2}, {50, 2}, 0_s, 60_s);
  EXPECT_EQ(c.lookup({30, 1}, 1_s), (Address{40, 1}));
  EXPECT_EQ(c.lookup({30, 2}, 1_s), (Address{50, 2}));
}

}  // namespace
}  // namespace fhmip
