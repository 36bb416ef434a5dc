#include "net/routing.hpp"

#include <algorithm>
#include <vector>

#include "net/link.hpp"

namespace fhmip {
namespace {

std::string describe(const Route& r) {
  if (r.link != nullptr) {
    return r.link->name().empty() ? "link" : "link " + r.link->name();
  }
  return r.handler ? "handler" : "invalid";
}

}  // namespace

std::string RoutingTable::format_table() const {
  // Sorted snapshot: the tables iterate in slot order, which depends on
  // insertion history; the dump must not.
  std::string out;
  std::vector<std::uint64_t> hosts;
  hosts.reserve(host_.size());
  for (const auto& slot : host_) hosts.push_back(slot.key);
  std::sort(hosts.begin(), hosts.end());
  for (std::uint64_t key : hosts) {
    const Address a{static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key)};
    out += "host " + a.to_string() + " -> " + describe(**host_.find(key)) +
           "\n";
  }
  std::vector<std::uint32_t> nets;
  nets.reserve(prefix_.size());
  for (const auto& slot : prefix_) nets.push_back(slot.key);
  std::sort(nets.begin(), nets.end());
  for (std::uint32_t net : nets) {
    out += "prefix " + std::to_string(net) + " -> " +
           describe(**prefix_.find(net)) + "\n";
  }
  if (default_.valid()) out += "default -> " + describe(default_) + "\n";
  return out;
}

}  // namespace fhmip
