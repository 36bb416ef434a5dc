#pragma once
// PERF-01 companion fixture: a std::hash specialization. Its class head
// `struct std::hash<...>` must not make `std` a program class, or every
// `std::vector` receiver would be taken for one and its growth missed.

#include <cstddef>
#include <functional>

template <>
struct std::hash<fx_perf::Packet> {
  std::size_t operator()(const fx_perf::Packet& p) const noexcept {
    return static_cast<std::size_t>(p.id);
  }
};
