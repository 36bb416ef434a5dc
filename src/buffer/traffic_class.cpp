#include "buffer/traffic_class.hpp"

namespace fhmip {

TrafficClass traffic_class_from_value(std::uint8_t v) {
  switch (v) {
    case 1:
      return TrafficClass::kRealTime;
    case 2:
      return TrafficClass::kHighPriority;
    case 3:
      return TrafficClass::kBestEffort;
    default:
      return TrafficClass::kUnspecified;
  }
}

DiffservPhb phb_from_traffic_class(TrafficClass c) {
  switch (effective_class(c)) {
    case TrafficClass::kRealTime:
      return DiffservPhb::kExpeditedForwarding;
    case TrafficClass::kHighPriority:
      return DiffservPhb::kAssuredForwarding;
    default:
      return DiffservPhb::kDefault;
  }
}

}  // namespace fhmip
