#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace fhmip {

/// A small open-addressed hash map from an unsigned integer key to a value:
/// one flat slot array of power-of-two capacity, multiplicative (Fibonacci)
/// hashing, linear probing and backward-shift erase, so there are no
/// tombstones and a lookup touches one or two adjacent slots where
/// std::unordered_map walks a prime-modulo bucket and a node. The all-ones
/// key is reserved as the empty-slot marker.
///
/// Inserting may rehash and erasing shifts later slots back, so both move
/// values: a caller that needs a value's address to survive them stores a
/// std::unique_ptr. Iteration visits slots in array order, which depends on
/// the capacity and the insertion history — anything order-sensitive
/// iterates a sorted snapshot (the DET-02 analyzer rule knows this type).
template <typename K, typename V>
class IntMap {
  static_assert(std::is_unsigned_v<K>, "IntMap keys are unsigned integers");

 public:
  static constexpr K kEmptyKey = std::numeric_limits<K>::max();

  struct Slot {
    K key = kEmptyKey;
    V value{};
  };

  template <typename S>
  class Iter {
   public:
    Iter(S* at, S* end) : at_(at), end_(end) { skip(); }
    S& operator*() const { return *at_; }
    S* operator->() const { return at_; }
    Iter& operator++() {
      ++at_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return at_ == o.at_; }
    bool operator!=(const Iter& o) const { return at_ != o.at_; }

   private:
    void skip() {
      while (at_ != end_ && at_->key == kEmptyKey) ++at_;
    }
    S* at_;
    S* end_;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  V* find(K key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }
  const V* find(K key) const { return const_cast<IntMap*>(this)->find(key); }
  bool contains(K key) const { return find(key) != nullptr; }

  /// The value under `key`, value-initialized and inserted when absent.
  V& operator[](K key) {
    FHMIP_AUDIT("intmap", key != kEmptyKey);
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`; false when it was absent.
  bool erase(K key) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
    // Backward shift: pull each later entry of the run into the hole when
    // the hole lies on its probe path (between its home slot and itself).
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      const std::size_t dist = (j - home(slots_[j].key)) & mask_;
      if (dist >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  Iter<Slot> begin() { return {slots_.data(), slots_.data() + slots_.size()}; }
  Iter<Slot> end() {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }
  Iter<const Slot> begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  Iter<const Slot> end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  std::size_t home(K key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 8 : old.size() * 2;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace fhmip
