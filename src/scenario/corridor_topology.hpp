#pragma once

#include <memory>
#include <vector>

#include "fastho/ar_agent.hpp"
#include "fastho/mh_agent.hpp"
#include "mip/map_agent.hpp"
#include "net/network.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {

/// A corridor of N access routers under one MAP — the generalization of
/// Figure 4.1 to a whole roaming path:
///
///   CN --- GW --- MAP --+--- AR1 ((AP))   ((AP)) AR2 ... ((AP)) ARn
///                       |     |             |
///                       +-----+-- ... ------+      (star to the MAP,
///   AR_i --- AR_{i+1} direct links for the tunnels)
///
/// A mobile host walking the corridor hands over N-1 times, with every
/// interior router acting first as NAR, then as PAR.
struct CorridorConfig {
  std::uint64_t seed = 1;
  int num_ars = 4;
  double ap_spacing_m = 212;
  double ap_radius_m = 112;
  double speed_mps = 10;
  SimTime mobility_start = SimTime::millis(100);
  double cn_gw_mbps = 100, gw_map_mbps = 100, map_ar_mbps = 10,
         ar_ar_mbps = 10;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime ar_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;
  WlanConfig wlan;
  BufferSchemeConfig scheme;
  bool use_fast_handover = true;
  bool request_buffers = true;
  /// Control-plane retransmission/backoff for the MH and every AR.
  RetransmitPolicy rtx;
};

class CorridorTopology {
 public:
  explicit CorridorTopology(const CorridorConfig& cfg);

  void start();
  /// Time to walk the full corridor.
  SimTime walk_duration() const;

  Simulation& simulation() { return sim_; }
  Network& network() { return *net_; }
  Node& cn() { return *cn_; }
  Node& map_router() { return *map_; }
  MapAgent& map_agent() { return *map_agent_; }
  std::size_t num_ars() const { return ars_.size(); }
  Node& ar(std::size_t i) { return *ars_.at(i); }
  ArAgent& ar_agent(std::size_t i) { return *ar_agents_.at(i); }
  WlanManager& wlan() { return *wlan_; }
  Node& mh() { return *mh_; }
  MhAgent& mh_agent() { return *mh_agent_; }
  MobileIpClient& mip() { return *mip_; }
  Address mh_regional() const { return regional_; }
  /// Per-attempt inter-AR handover outcomes along the corridor.
  const HandoverOutcomeRecorder& outcomes() const {
    return sim_.timeline().outcomes();
  }

 private:
  CorridorConfig cfg_;
  Simulation sim_;
  std::unique_ptr<Network> net_;
  Node* cn_ = nullptr;
  Node* gw_ = nullptr;
  Node* map_ = nullptr;
  std::vector<Node*> ars_;
  Node* mh_ = nullptr;
  std::unique_ptr<MapAgent> map_agent_;
  std::vector<std::unique_ptr<ArAgent>> ar_agents_;
  std::unique_ptr<WlanManager> wlan_;
  std::unique_ptr<MobileIpClient> mip_;
  std::unique_ptr<MhAgent> mh_agent_;
  Address regional_;
};

}  // namespace fhmip
