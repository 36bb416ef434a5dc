#include "sim/simulation.hpp"

#include <string>

namespace fhmip {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {
  timeline_.set_registry(metrics_);
}

void Simulation::drop(PacketPtr p, DropReason reason, const char* where) {
  stats_.record_drop(p->flow, reason);
  if (trace_.enabled()) {
    TraceEvent e = trace_event(now(), TraceKind::kDrop, where, *p);
    e.reason = reason;
    trace_.emit(e);
  }
  if (logger_.enabled(LogLevel::kDebug)) {
    log(LogLevel::kDebug,
        std::string(where) + " dropped " + message_name(p->msg) + " uid=" +
            std::to_string(p->uid) + " seq=" + std::to_string(p->seq) +
            " dst=" + p->dst.to_string() + " (" + to_string(reason) + ")");
  }
}

}  // namespace fhmip
