#include "net/link.hpp"

#include <cmath>
#include <utility>

#include "net/node.hpp"

namespace fhmip {

namespace {

std::variant<DropTailQueue, ClassPriorityQueue> make_queue(
    QueueDiscipline discipline, std::size_t limit) {
  if (discipline == QueueDiscipline::kClassPriority) {
    return ClassPriorityQueue(limit);
  }
  return DropTailQueue(limit);
}

}  // namespace

SimplexLink::SimplexLink(Simulation& sim, Node& to, double bandwidth_bps,
                         SimTime delay, std::size_t queue_limit,
                         std::string name, QueueDiscipline discipline)
    : sim_(sim),
      to_(to),
      bandwidth_(bandwidth_bps),
      delay_(delay),
      queue_(make_queue(discipline, queue_limit)),
      name_(std::move(name)) {
  if (!name_.empty()) {
    obs::MetricsRegistry& m = sim_.metrics();
    m_delivered_ = &m.counter("link/" + name_ + "/delivered_pkts");
    m_dropped_ = &m.counter("link/" + name_ + "/dropped_pkts");
    m_bytes_ = &m.counter("link/" + name_ + "/bytes");
    m_queue_ = &m.gauge("link/" + name_ + "/queue_pkts");
  }
}

DropTailQueue* SimplexLink::queue() {
  return std::get_if<DropTailQueue>(&queue_);
}

ClassPriorityQueue* SimplexLink::priority_queue() {
  return std::get_if<ClassPriorityQueue>(&queue_);
}

std::size_t SimplexLink::queue_size() const {
  return std::visit([](const auto& q) { return q.size(); }, queue_);
}

bool SimplexLink::queue_push(PacketPtr& p) {
  return std::visit([&p](auto& q) { return q.push(p); }, queue_);
}

PacketPtr SimplexLink::queue_pop() {
  return std::visit([](auto& q) { return q.pop(); }, queue_);
}

void SimplexLink::drop_queued() {
  std::visit(
      [this](auto& q) {
        q.drain([this](PacketPtr p) {
          drop(std::move(p), DropReason::kWirelessDown);
        });
      },
      queue_);
  if (m_queue_ != nullptr) m_queue_->set(0);
}

SimTime SimplexLink::tx_time(std::uint32_t bytes) const {
  return SimTime::from_seconds(static_cast<double>(bytes) * 8.0 / bandwidth_);
}

void SimplexLink::transmit(PacketPtr p) {
  if (!up_) {
    drop(std::move(p), DropReason::kWirelessDown);
    return;
  }
  if (tx_filter_ && tx_filter_(*p)) {
    drop(std::move(p), DropReason::kFaultInjected);
    return;
  }
  if (loss_rate_ > 0.0 && sim_.rng().chance(loss_rate_)) {
    drop(std::move(p), DropReason::kRandomLoss);
    return;
  }
  // A drain is armed exactly while the queue is non-empty; a packet handed
  // over then queues behind it, even at the instant the transmitter frees.
  if (sim_.now() < busy_until_ || drain_ != kInvalidEvent) {
    if (queue_push(p)) {
      if (m_queue_ != nullptr) m_queue_->add(1);
      arm_drain();
    } else {
      drop(std::move(p), DropReason::kQueueOverflow);
    }
    return;
  }
  start_tx(std::move(p));
}

void SimplexLink::start_tx(PacketPtr p) {
  if (sim_.trace().enabled()) {
    sim_.trace().emit(
        trace_event(sim_.now(), TraceKind::kTransmit, name_.c_str(), *p));
  }
  busy_until_ = sim_.now() + tx_time(p->size_bytes);
  // The packet is committed to the air/wire from its first bit: it is
  // delivered even if the link goes down before serialization ends (ns-2
  // semantics: link-down affects packets that have not started
  // transmission, not ones already in flight). It joins the in-flight FIFO
  // at once, and its one event is the delivery. Packets still in the link
  // when the simulation ends are reclaimed by ~SimplexLink.
  fly_append(std::move(p));
  // A bare `this` capture fits std::function's inline storage (no
  // allocation), and links outlive the event loop: topologies hold their
  // links for the whole Simulation::run(), and unfired events are
  // destroyed, never invoked. NOLINT-FHMIP(PERF-01,LIFE-01)
  sim_.at(busy_until_ + delay_, [this] { deliver_front(); });  // NOLINT-FHMIP(PERF-01,LIFE-01)
}

void SimplexLink::arm_drain() {
  if (drain_ != kInvalidEvent) return;
  // Same SBO/lifetime argument as start_tx; ~SimplexLink cancels it.
  drain_ = sim_.at(busy_until_, [this] { drain(); });  // NOLINT-FHMIP(PERF-01,LIFE-01)
}

void SimplexLink::drain() {
  drain_ = kInvalidEvent;
  PacketPtr next = queue_pop();
  FHMIP_AUDIT_MSG("net", next != nullptr,
                  "link " + name_ + ": drain event with empty queue");
  if (m_queue_ != nullptr) m_queue_->add(-1);
  start_tx(std::move(next));
  if (queue_size() > 0) arm_drain();
}

void SimplexLink::deliver_front() {
  FHMIP_AUDIT_MSG("net", fly_head_ != nullptr,
                  "link " + name_ + ": delivery event with empty fly queue");
  PacketPtr pkt = fly_detach_head();
  ++delivered_;
  bytes_delivered_ += pkt->size_bytes;
  if (m_delivered_ != nullptr) {
    m_delivered_->inc();
    m_bytes_->inc(pkt->size_bytes);
  }
  if (sim_.trace().enabled()) {
    sim_.trace().emit(
        trace_event(sim_.now(), TraceKind::kDeliver, name_.c_str(), *pkt));
  }
  to_.receive(std::move(pkt));
}

SimplexLink::~SimplexLink() {
  sim_.cancel(drain_);
  // Packets still serializing or propagating when the topology is torn
  // down (simulation ended mid-flight).
  while (fly_head_ != nullptr) fly_detach_head();
}

void SimplexLink::drop(PacketPtr p, DropReason reason) {
  ++dropped_;
  if (m_dropped_ != nullptr) m_dropped_->inc();
  sim_.drop(std::move(p), reason, name_.c_str());
}

void SimplexLink::set_up(bool up) {
  up_ = up;
  if (!up_) {
    // Everything queued dies with the link, and so does its drain.
    drop_queued();
    sim_.cancel(drain_);
    drain_ = kInvalidEvent;
  }
  FHMIP_AUDIT_MSG("net", up_ || queue_size() == 0,
                  "link " + name_ + ": queue survived link-down");
}

DuplexLink::DuplexLink(Simulation& sim, Node& a, Node& b, double bandwidth_bps,
                       SimTime delay, std::size_t queue_limit,
                       std::string name, QueueDiscipline discipline)
    : a_(a),
      b_(b),
      ab_(sim, b, bandwidth_bps, delay, queue_limit, name + ">", discipline),
      ba_(sim, a, bandwidth_bps, delay, queue_limit, name + "<", discipline) {}

SimplexLink& DuplexLink::toward(const Node& n) {
  return (&n == &b_) ? ab_ : ba_;
}

}  // namespace fhmip
