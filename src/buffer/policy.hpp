#pragma once

#include <cstdint>

#include "buffer/traffic_class.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// Which buffers participate in a handoff — the four lines of Figure 4.2.
/// kDual is the proposed scheme; kNarOnly matches the original Fast
/// Handover buffering; kNone is Fast Handover without buffering.
enum class BufferMode { kNone, kNarOnly, kParOnly, kDual };
const char* to_string(BufferMode m);

/// Table 3.2 — which routers were able to grant buffer space.
struct AllocationCase {
  bool nar_has_space = false;
  bool par_has_space = false;

  /// 1..4 as in Table 3.2 (1 = both yes ... 4 = both no).
  int case_number() const {
    if (nar_has_space && par_has_space) return 1;
    if (nar_has_space) return 2;
    if (par_has_space) return 3;
    return 4;
  }
};

/// The redirection decision made by the PAR for one packet (Table 3.3).
enum class BufferAction {
  /// Tunnel to the NAR; the NAR buffers it (real-time semantics: a full
  /// buffer evicts the oldest real-time packet).
  kBufferAtNar,
  /// Tunnel to the NAR; buffer there until full, then (after the NAR's
  /// Buffer Full notification) buffer the remainder at the PAR (Case 1.b).
  kBufferAtBoth,
  /// Buffer at the PAR, but only while the available space exceeds the
  /// reserve constant `a` (Cases 1.c / 3.c).
  kBufferAtParIfHeadroom,
  /// Buffer at the PAR unconditionally (Case 3.b).
  kBufferAtPar,
  /// Tunnel to the NAR without buffering; lost if the MH is detached.
  kForwardOnly,
  /// Drop at the PAR (Case 4.c: ease the network load).
  kDrop,
};
const char* to_string(BufferAction a);

/// Scheme parameters shared by the MH request and both routers.
struct BufferSchemeConfig {
  BufferMode mode = BufferMode::kDual;
  /// Enable per-class treatment (Figures 4.4 vs 4.5 toggle this).
  bool classify = true;
  /// The `a` constant of Case 1.c/3.c — best-effort packets are buffered at
  /// the PAR only while more than this many slots stay free.
  std::uint32_t reserve_a = 5;
  /// Total buffer pool per access router, in packets.
  std::uint32_t pool_pkts = 20;
  /// Buffer size each MH requests in its BI message.
  std::uint32_t request_pkts = 20;
  /// Grant less than the full request when the pool is low (extension; the
  /// thesis negotiates all-or-nothing, see §5 future work).
  bool allow_partial_grant = false;
  /// Per-MH ceiling on aggregate leased slots across all roles (overload
  /// fairness: one host cannot starve the shared pool). 0 = unlimited.
  std::uint32_t quota_pkts = 0;
  /// Grace added on top of `lifetime` before the allocation-lease reaper may
  /// reclaim an unreleased grant. The slack keeps the reaper strictly a
  /// backstop: the per-context lifetime timer (an accounted, graceful
  /// teardown) always gets to fire first when the agent is healthy.
  SimTime lease_grace = SimTime::seconds(1);
  /// Buffer allocation lifetime (BI lifetime field). Must cover the whole
  /// anticipation window: from the L2 trigger (overlap entry) through the
  /// blackout and release — pedestrian speeds need several seconds.
  SimTime lifetime = SimTime::seconds(10);
  /// Per-packet processing delay when releasing a buffer (§4.2.3: routers
  /// cannot dump all buffered packets at the same time).
  SimTime drain_gap = SimTime::micros(200);

  // --- §5 future-work extension: precise allocation ---
  /// When set, the PAR replaces the MH's requested size with its own
  /// estimate of the host's downstream rate × an expected 300 ms blackout,
  /// clamped to [4, request]. Idle or slow hosts then reserve far less of
  /// the shared pool.
  bool adaptive_request = false;
};

/// Table 3.3 — the buffering operation for one packet given the allocation
/// case and the packet's (effective) class. With classification disabled
/// every packet uses the high-priority row, i.e. "use both buffers, NAR
/// first" (§4.2.2's class-disabled runs). Non-dual modes degenerate to
/// single-buffer operation regardless of class.
BufferAction decide_buffering(const BufferSchemeConfig& cfg,
                              AllocationCase alloc, TrafficClass cls);

}  // namespace fhmip
