#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "net/priority_queue.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace fhmip {

class Node;

/// Transmit-queue discipline for a link (§3.3's Diffserv note: the scheme
/// can ride on class-aware forwarding).
enum class QueueDiscipline { kDropTail, kClassPriority };

/// A unidirectional link with finite bandwidth, fixed propagation delay and
/// a drop-tail queue — the ns-2 link model. A packet occupies the
/// transmitter for size*8/bandwidth seconds, then arrives delay later.
///
/// The transmitter is lazy: it keeps the time serialization ends instead of
/// scheduling an event for it. A hop costs one event, its delivery; while
/// packets queue, one `drain` event starts each when the transmitter frees.
///
/// Wireless behaviour: when `set_up(false)` (MH out of range / L2 handoff
/// blackout), packets attempted or in flight are dropped with
/// DropReason::kWirelessDown — the single-radio disconnection of §2.4.
class SimplexLink {
 public:
  SimplexLink(Simulation& sim, Node& to, double bandwidth_bps, SimTime delay,
              std::size_t queue_limit, std::string name = {},
              QueueDiscipline discipline = QueueDiscipline::kDropTail);

  /// Hands the packet to the link. May drop (queue overflow / link down /
  /// random loss).
  void transmit(PacketPtr p);

  void set_up(bool up);
  bool up() const { return up_; }

  /// Random per-packet loss (wireless corruption model); 0 disables.
  void set_loss_rate(double p) { loss_rate_ = p; }

  /// Scripted fault hook (src/fault): inspects every packet handed to the
  /// link before queueing; returning true kills it as kFaultInjected. An
  /// empty function clears the hook.
  using TxFilter = std::function<bool(const Packet&)>;
  void set_tx_filter(TxFilter f) { tx_filter_ = std::move(f); }

  double bandwidth_bps() const { return bandwidth_; }
  SimTime delay() const { return delay_; }
  SimTime tx_time(std::uint32_t bytes) const;
  Node& destination() const { return to_; }
  const std::string& name() const { return name_; }

  /// The drop-tail queue (valid for the default discipline, else nullptr).
  DropTailQueue* queue();
  /// The class-priority queue (valid for kClassPriority, else nullptr).
  ClassPriorityQueue* priority_queue();
  std::size_t queue_size() const;

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  ~SimplexLink();

 private:
  bool queue_push(PacketPtr& p);
  PacketPtr queue_pop();
  void drop_queued();
  void start_tx(PacketPtr p);
  void arm_drain();
  void drain();
  void deliver_front();

  /// Appends an owned packet to the in-flight (propagation) FIFO.
  void fly_append(PacketPtr p) {
    Packet* raw = p.release();
    raw->pool_next = nullptr;
    if (fly_tail_ == nullptr) {
      fly_head_ = raw;
    } else {
      fly_tail_->pool_next = raw;
    }
    fly_tail_ = raw;
  }

  /// Unlinks the oldest in-flight packet and rewraps it.
  PacketPtr fly_detach_head() {
    Packet* raw = fly_head_;
    fly_head_ = raw->pool_next;
    if (fly_head_ == nullptr) fly_tail_ = nullptr;
    raw->pool_next = nullptr;
    return PacketPtr(raw);
  }

  void drop(PacketPtr p, DropReason reason);

  Simulation& sim_;
  Node& to_;
  double bandwidth_;
  SimTime delay_;
  std::variant<DropTailQueue, ClassPriorityQueue> queue_;
  std::string name_;
  // Registry-owned series (null for anonymous links: metrics need a stable
  // name to key on, and unnamed links are throwaway test fixtures).
  obs::Counter* m_delivered_ = nullptr;  // link/<name>/delivered_pkts
  obs::Counter* m_dropped_ = nullptr;    // link/<name>/dropped_pkts
  obs::Counter* m_bytes_ = nullptr;      // link/<name>/bytes
  obs::Gauge* m_queue_ = nullptr;        // link/<name>/queue_pkts
  // The intrusive FIFO of packets that started serializing and are on
  // their way to `to_`. Chained through Packet::pool_next: the delivery
  // events are plain `[this]` lambdas (no per-packet heap holder), and the
  // link — not the scheduler — owns packets in flight. Propagation delay is
  // constant per link and serialize-end times are monotonic, so deliveries
  // fire in FIFO order and deliver_front() always matches its event.
  Packet* fly_head_ = nullptr;
  Packet* fly_tail_ = nullptr;
  SimTime busy_until_;                // when the transmitter frees up
  EventId drain_ = kInvalidEvent;     // armed while the queue is non-empty
  bool up_ = true;
  double loss_rate_ = 0.0;
  TxFilter tx_filter_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

/// A pair of simplex links, the usual wired duplex link.
class DuplexLink {
 public:
  DuplexLink(Simulation& sim, Node& a, Node& b, double bandwidth_bps,
             SimTime delay, std::size_t queue_limit, std::string name = {},
             QueueDiscipline discipline = QueueDiscipline::kDropTail);

  SimplexLink& toward(const Node& n);
  SimplexLink& a_to_b() { return ab_; }
  SimplexLink& b_to_a() { return ba_; }
  Node& a() const { return a_; }
  Node& b() const { return b_; }

 private:
  Node& a_;
  Node& b_;
  SimplexLink ab_;
  SimplexLink ba_;
};

}  // namespace fhmip
