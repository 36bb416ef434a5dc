#include "transport/cbr.hpp"

namespace fhmip {

CbrSource::CbrSource(Node& node, std::uint16_t src_port, Config cfg)
    : udp_(node, src_port),
      cfg_(cfg),
      emit_(Timer::of<&CbrSource::emit>(node.sim().scheduler(), this)) {}

CbrSource::~CbrSource() {
  Simulation& sim = udp_.node().sim();
  sim.cancel(start_ev_);
  sim.cancel(stop_ev_);
}

void CbrSource::start(SimTime at) {
  start_ev_ = udp_.node().sim().at(at, [this] {
    running_ = true;
    // A restart before the old chain saw stop() re-phases that chain.
    emit_.disarm();
    emit();
  });
}

void CbrSource::stop(SimTime at) {
  stop_ev_ = udp_.node().sim().at(at, [this] { running_ = false; });
}

void CbrSource::emit() {
  if (!running_) return;
  udp_.send_to(cfg_.dst, cfg_.dst_port, cfg_.packet_bytes, cfg_.tclass,
               cfg_.flow, next_seq_++);
  Simulation& sim = udp_.node().sim();
  SimTime gap = cfg_.interval;
  if (!cfg_.jitter.is_zero()) {
    gap += SimTime::nanos(
        sim.rng().uniform_int(-cfg_.jitter.ns(), cfg_.jitter.ns()));
    if (gap < SimTime::micros(1)) gap = SimTime::micros(1);
  }
  emit_.arm_in(gap);
}

SimTime CbrSource::interval_for_rate(double kbps, std::uint32_t packet_bytes) {
  return SimTime::from_seconds(packet_bytes * 8.0 / (kbps * 1000.0));
}

}  // namespace fhmip
