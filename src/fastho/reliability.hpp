#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace fhmip {

/// Retransmission/backoff policy for the Fast Handover control plane.
///
/// The base FMIPv6 protocol mandates FBU retransmission with exponential
/// backoff; the thesis's piggybacked buffer extensions inherit the same
/// rule (a lost BI/BR/BF rides on a lost carrier message). One policy
/// instance covers every retransmitted message: RtSolPr+BI, FBU and FNA+BF
/// on the MH, HI+BR on the PAR.
///
/// A message is sent, then resent after `rto`, `rto*backoff`,
/// `rto*backoff^2`, ... until it is acknowledged or `max_retries` resends
/// have been spent. Exhaustion triggers the degraded path: the MH falls
/// back to the reactive (non-anticipated, §2.3.2) handover, the PAR
/// answers the MH with an empty grant so no buffers are orphaned.
struct RetransmitPolicy {
  /// Master switch; false restores the seed's fire-and-forget signaling.
  bool enabled = true;
  /// Initial retransmission timeout. The default comfortably exceeds the
  /// worst control round trip in the paper topology (wireless 1 ms +
  /// inter-AR 2 ms each way plus transmission times).
  SimTime rto = SimTime::millis(40);
  /// Multiplier applied per resend (exponential backoff).
  double backoff = 2.0;
  /// Resends after the initial transmission (so max_retries + 1 sends).
  std::uint32_t max_retries = 4;

  /// Timeout armed after send number `attempt` (0 = the initial send).
  SimTime timeout_for(std::uint32_t attempt) const {
    double scale = 1.0;
    for (std::uint32_t i = 0; i < attempt; ++i) scale *= backoff;
    return SimTime::from_seconds(rto.sec() * scale);
  }
};

}  // namespace fhmip
