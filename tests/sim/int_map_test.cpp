#include "sim/int_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace fhmip {
namespace {

using Map = IntMap<std::uint32_t, std::string>;

// A value long enough to live on the heap, so a value moved twice or read
// after its slot was cleared shows up under ASan.
std::string value_of(std::uint32_t key, int version) {
  return std::string(24, static_cast<char>('a' + key % 26)) + "#" +
         std::to_string(key) + "v" + std::to_string(version);
}

// Every key of the table, in slot (iteration) order.
std::vector<std::uint32_t> slot_order(const Map& m) {
  std::vector<std::uint32_t> keys;
  for (const auto& slot : m) keys.push_back(slot.key);
  return keys;
}

void expect_same(const Map& m, const std::map<std::uint32_t, std::string>& model) {
  ASSERT_EQ(m.size(), model.size());
  std::vector<std::pair<std::uint32_t, std::string>> got;
  for (const auto& slot : m) got.emplace_back(slot.key, slot.value);
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<std::uint32_t, std::string>> want(model.begin(),
                                                                 model.end());
  ASSERT_EQ(got, want);
  for (const auto& [k, v] : model) {
    const std::string* found = m.find(k);
    ASSERT_NE(found, nullptr) << "key " << k;
    ASSERT_EQ(*found, v);
  }
}

TEST(IntMap, EmptyTableFindsNothingAndAllocatesNothing) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_FALSE(m.contains(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.begin(), m.end());
}

TEST(IntMap, SubscriptInsertsOnceAndFindSeesIt) {
  Map m;
  m[5] = "five";
  m[5] += "!";
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), "five!");
  EXPECT_EQ(m.find(6), nullptr);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_TRUE(m.empty());
}

TEST(IntMap, GrowsByDoublingAndKeepsEveryEntry) {
  Map m;
  std::map<std::uint32_t, std::string> model;
  std::size_t grows = 0;
  std::size_t cap = m.capacity();
  for (std::uint32_t k = 0; k < 1000; ++k) {
    const std::uint32_t key = k * 7919u;  // spread over the key space
    m[key] = value_of(key, 0);
    model[key] = value_of(key, 0);
    if (m.capacity() != cap) {
      EXPECT_EQ(m.capacity(), cap == 0 ? 8u : 2 * cap);
      cap = m.capacity();
      ++grows;
    }
    // Load stays at or below three quarters.
    EXPECT_LE(m.size() * 4, m.capacity() * 3);
  }
  EXPECT_GE(grows, 8u);
  expect_same(m, model);
}

// The table of two keys, inserted in the given order (capacity 8).
Map pair_of(std::uint32_t first, std::uint32_t second) {
  Map m;
  m[first] = value_of(first, 1);
  m[second] = value_of(second, 1);
  return m;
}

TEST(IntMap, EraseAcrossTheWrapAroundShiftsTheRunBack) {
  // Home slots are not observable, but slot order is. Two keys share a
  // home exactly when their slot order follows their insertion order; that
  // home is the last slot exactly when the second key wraps to slot 0 and
  // so iterates first.
  std::uint32_t a = 0, b = 0;
  bool found = false;
  for (std::uint32_t x = 0; x < 256 && !found; ++x) {
    for (std::uint32_t y = x + 1; y < 256 && !found; ++y) {
      const auto xy = slot_order(pair_of(x, y));
      const auto yx = slot_order(pair_of(y, x));
      if (xy != yx && xy == std::vector<std::uint32_t>{y, x}) {
        a = x;
        b = y;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no two keys share the last home slot";
  Map m = pair_of(a, b);
  ASSERT_EQ(m.capacity(), 8u);
  ASSERT_EQ(slot_order(m), (std::vector<std::uint32_t>{b, a}));
  // Erasing a (in the last slot) pulls b back across the wrap.
  EXPECT_TRUE(m.erase(a));
  EXPECT_EQ(slot_order(m), std::vector<std::uint32_t>{b});
  ASSERT_NE(m.find(b), nullptr);
  EXPECT_EQ(*m.find(b), value_of(b, 1));
  EXPECT_EQ(m.find(a), nullptr);
  // Re-inserting a now wraps a, and both stay findable.
  m[a] = value_of(a, 2);
  EXPECT_EQ(slot_order(m), (std::vector<std::uint32_t>{a, b}));
  EXPECT_EQ(*m.find(a), value_of(a, 2));
  EXPECT_EQ(*m.find(b), value_of(b, 1));
  // Erasing the wrapped key leaves the one at its home alone.
  EXPECT_TRUE(m.erase(a));
  EXPECT_EQ(slot_order(m), std::vector<std::uint32_t>{b});
}

TEST(IntMap, MatchesOrderedMapModelOnRandomPrograms) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    Map m;
    std::map<std::uint32_t, std::string> model;
    // A small key universe forces long probe runs, collisions, wrap-around
    // and shifts; a few keys sit near the top of the key range.
    const std::uint32_t universe = 16 + seed * 8;
    auto pick = [&] {
      const std::uint32_t k = rng() % universe;
      return k % 11 == 0 ? Map::kEmptyKey - 1 - k : k;
    };
    for (int op = 0; op < 4000; ++op) {
      const std::uint32_t key = pick();
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {  // insert or overwrite
          m[key] = value_of(key, op);
          model[key] = value_of(key, op);
          break;
        }
        case 3:
        case 4: {  // erase
          EXPECT_EQ(m.erase(key), model.erase(key) == 1);
          break;
        }
        case 5: {  // find
          const std::string* got = m.find(key);
          const auto it = model.find(key);
          ASSERT_EQ(got != nullptr, it != model.end());
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second);
          }
          break;
        }
        case 6: {  // subscript read inserts a default value
          const std::string seen = m[key];
          const std::string want = model[key];
          ASSERT_EQ(seen, want);
          break;
        }
        default:
          if (rng() % 64 == 0) {
            m.clear();
            model.clear();
          }
          break;
      }
      ASSERT_EQ(m.size(), model.size()) << "seed " << seed << " op " << op;
      if (op % 97 == 0) expect_same(m, model);
    }
    expect_same(m, model);
  }
}

TEST(IntMap, UniquePtrValuesKeepTheirPointeesAcrossGrowAndErase) {
  IntMap<std::uint64_t, std::unique_ptr<int>> m;
  std::vector<const int*> addr;
  for (std::uint64_t k = 0; k < 300; ++k) {
    m[k << 32 | k] = std::make_unique<int>(static_cast<int>(k));
    addr.push_back(m.find(k << 32 | k)->get());
  }
  for (std::uint64_t k = 0; k < 300; k += 3) m.erase(k << 32 | k);
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto* v = m.find(k << 32 | k);
    if (k % 3 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(v->get(), addr[k]);
      EXPECT_EQ(**v, static_cast<int>(k));
    }
  }
}

}  // namespace
}  // namespace fhmip
