#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace fhmip {

/// TCP Reno sender with a BSD-style coarse retransmission timer
/// (§4.2.4: "TCP Reno, tick interval 500 ms, minimum RTO 1 second").
/// The application is FTP-like: unlimited data unless `total_bytes` is set.
///
/// Implemented behaviour: slow start, congestion avoidance, fast retransmit
/// on the third duplicate ACK, Reno fast recovery with window inflation,
/// exponential timer backoff, go-back-N after a timeout. Sequence numbers
/// are byte offsets as in real TCP.
class TcpSender {
 public:
  struct Config {
    Address dst;
    std::uint16_t dst_port = 0;
    std::uint16_t src_port = 0;
    std::uint32_t mss = 1000;
    std::uint32_t rwnd_pkts = 64;  // receiver window, in segments
    SimTime tick = SimTime::millis(500);
    SimTime min_rto = SimTime::seconds(1);
    std::uint32_t initial_ssthresh_pkts = 32;
    /// NewReno partial-ack handling: stay in fast recovery across partial
    /// ACKs and retransmit the next hole (RFC 2582). Off = classic Reno,
    /// the variant the thesis simulates.
    bool newreno = false;
    FlowId flow = kNoFlow;      // data segments
    FlowId ack_flow = kNoFlow;  // what the sink stamps on ACKs
    std::uint64_t total_bytes = 0;  // 0 = unbounded
  };

  struct TracePoint {
    SimTime at;
    std::uint32_t seq;  // bytes; divide by mss for segment numbers
  };

  TcpSender(Node& node, Config cfg);
  ~TcpSender();

  void start(SimTime at);

  // Introspection / traces for the figures.
  const std::vector<TracePoint>& send_trace() const { return send_trace_; }
  const std::vector<TracePoint>& ack_trace() const { return ack_trace_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  double cwnd_bytes() const { return cwnd_; }
  std::uint32_t ssthresh_bytes() const { return ssthresh_; }
  int timeouts() const { return timeouts_; }
  int fast_retransmits() const { return fast_retransmits_; }
  SimTime current_rto() const;

 private:
  void try_send();
  void send_segment(std::uint32_t seq, bool retransmission);
  void handle_packet(PacketPtr p);
  void on_ack(std::uint32_t ack);
  void arm_timer();
  void disarm_timer();
  void on_timeout();
  std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  std::uint64_t app_limit() const;

  Node& node_;
  Config cfg_;
  bool started_ = false;

  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  double cwnd_ = 0;          // bytes
  std::uint32_t ssthresh_;   // bytes
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;

  // RTT estimation (one outstanding sample, Karn's rule).
  bool rtt_pending_ = false;
  std::uint32_t rtt_seq_ = 0;
  SimTime rtt_sent_at_;
  bool have_srtt_ = false;
  double srtt_s_ = 0;
  double rttvar_s_ = 0;
  int backoff_ = 1;

  EventId rtx_timer_ = kInvalidEvent;
  EventId start_ev_ = kInvalidEvent;
  int timeouts_ = 0;
  int fast_retransmits_ = 0;

  std::vector<TracePoint> send_trace_;
  std::vector<TracePoint> ack_trace_;
};

/// TCP receiver: cumulative ACK per arriving segment, out-of-order
/// reassembly, delivery trace for the sequence figures.
class TcpSink {
 public:
  TcpSink(Node& node, std::uint16_t port);
  ~TcpSink();

  /// ACKs are stamped with this flow id for drop accounting.
  void set_ack_flow(FlowId f) { ack_flow_ = f; }

  /// RFC 1122 delayed ACKs: acknowledge every second in-order segment or
  /// after `delay`; out-of-order segments still ACK immediately (the
  /// duplicate-ACK signal fast retransmit depends on).
  void set_delayed_ack(bool on, SimTime delay = SimTime::millis(200));

  std::uint64_t acks_sent() const { return acks_sent_; }

  std::uint32_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t bytes_in_order() const { return rcv_nxt_; }
  const std::vector<TcpSender::TracePoint>& recv_trace() const {
    return recv_trace_;
  }

 private:
  void handle_packet(PacketPtr p);
  void send_ack(Address to, std::uint16_t to_port);

  Node& node_;
  std::uint16_t port_;
  FlowId ack_flow_ = kNoFlow;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, std::uint32_t> ooo_;  // seq -> len
  std::vector<TcpSender::TracePoint> recv_trace_;
  bool delayed_ack_ = false;
  SimTime ack_delay_ = SimTime::millis(200);
  bool ack_pending_ = false;
  Address pending_peer_;
  std::uint16_t pending_peer_port_ = 0;
  EventId ack_timer_ = kInvalidEvent;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace fhmip
