#include "buffer/traffic_class.hpp"

#include <gtest/gtest.h>

namespace fhmip {
namespace {

TEST(TrafficClassTable31, WireValuesMatchTable) {
  // Table 3.1 assigns 0=unspecified, 1=real-time, 2=high-priority, 3=BE.
  EXPECT_EQ(class_of_service_value(TrafficClass::kUnspecified), 0);
  EXPECT_EQ(class_of_service_value(TrafficClass::kRealTime), 1);
  EXPECT_EQ(class_of_service_value(TrafficClass::kHighPriority), 2);
  EXPECT_EQ(class_of_service_value(TrafficClass::kBestEffort), 3);
}

TEST(TrafficClassTable31, RoundTrip) {
  for (std::uint8_t v = 0; v <= 3; ++v) {
    EXPECT_EQ(class_of_service_value(traffic_class_from_value(v)), v);
  }
}

TEST(TrafficClassTable31, OutOfRangeTreatedAsUnspecified) {
  EXPECT_EQ(traffic_class_from_value(4), TrafficClass::kUnspecified);
  EXPECT_EQ(traffic_class_from_value(255), TrafficClass::kUnspecified);
}

TEST(DiffservMapping, ClassToPhbRoundTrip) {
  // §3.3: operation in a Diffserv network by mapping classes onto PHBs.
  EXPECT_EQ(phb_from_traffic_class(TrafficClass::kRealTime),
            DiffservPhb::kExpeditedForwarding);
  EXPECT_EQ(phb_from_traffic_class(TrafficClass::kHighPriority),
            DiffservPhb::kAssuredForwarding);
  EXPECT_EQ(phb_from_traffic_class(TrafficClass::kBestEffort),
            DiffservPhb::kDefault);
  // Unspecified maps through best effort.
  EXPECT_EQ(phb_from_traffic_class(TrafficClass::kUnspecified),
            DiffservPhb::kDefault);
}

}  // namespace
}  // namespace fhmip
