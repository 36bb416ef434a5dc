#pragma once

#include <cstdint>
#include <memory>

#include "sim/scheduler.hpp"
#include "transport/udp.hpp"

namespace fhmip {

/// Constant-bit-rate source over UDP — the audio workload of §4.2
/// ("160-byte UDP packets every 20 ms" = 64 kb/s). Its emit chain runs on
/// one source-owned Timer; the chain ends at the first emit after stop().
class CbrSource {
 public:
  struct Config {
    Address dst;
    std::uint16_t dst_port = 0;
    std::uint32_t packet_bytes = 160;
    SimTime interval = SimTime::millis(20);
    /// Uniform ± jitter applied to each inter-packet gap (zero = strictly
    /// periodic). Breaks phase lock between concurrent sources.
    SimTime jitter;
    TrafficClass tclass = TrafficClass::kUnspecified;
    FlowId flow = kNoFlow;
  };

  CbrSource(Node& node, std::uint16_t src_port, Config cfg);
  ~CbrSource();

  void start(SimTime at);
  void stop(SimTime at);
  void stop_now() { running_ = false; }

  std::uint32_t packets_sent() const { return next_seq_; }
  UdpAgent& udp() { return udp_; }

  /// Rate helper: the interval that yields `kbps` with this packet size.
  static SimTime interval_for_rate(double kbps, std::uint32_t packet_bytes);

 private:
  void emit();

  UdpAgent udp_;
  Config cfg_;
  bool running_ = false;
  std::uint32_t next_seq_ = 0;
  // Pending self-scheduled events; cancelled on destruction so the
  // callbacks can never fire into a dead source. The emit timer disarms
  // itself.
  EventId start_ev_ = kInvalidEvent;
  EventId stop_ev_ = kInvalidEvent;
  Timer emit_;
};

}  // namespace fhmip
