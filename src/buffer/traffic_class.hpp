#pragma once

#include "net/packet.hpp"

namespace fhmip {

/// Table 3.1 — values in the class-of-service field. The enum itself lives
/// with the packet header (net/packet.hpp); this header adds the
/// classification helpers the buffer scheme uses.

/// The class-of-service value carried in the IPv6 traffic-class field, as
/// assigned by Table 3.1.
inline constexpr std::uint8_t class_of_service_value(TrafficClass c) {
  return static_cast<std::uint8_t>(c);
}

/// Parses a class-of-service field value; out-of-range values are treated
/// as unspecified (best effort), matching Table 3.1 row 0.
TrafficClass traffic_class_from_value(std::uint8_t v);

/// Diffserv interoperability (§3.3 "by mapping the classes of service with
/// the per-hop behaviour (PHB) in Diffserv"): the PHB each class maps to —
/// real-time → EF, high priority → AF, else the default PHB.
enum class DiffservPhb { kDefault, kExpeditedForwarding, kAssuredForwarding };
DiffservPhb phb_from_traffic_class(TrafficClass c);

}  // namespace fhmip
