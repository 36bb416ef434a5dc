#pragma once

#include <memory>
#include <vector>

#include "fastho/ar_agent.hpp"
#include "fastho/mh_agent.hpp"
#include "mip/map_agent.hpp"
#include "net/network.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {

/// Well-known address nets used by the paper topologies.
namespace nets {
inline constexpr std::uint32_t kCn = 10;
inline constexpr std::uint32_t kGw = 20;
inline constexpr std::uint32_t kMap = 30;  // regional (RCoA) prefix
inline constexpr std::uint32_t kPar = 40;
inline constexpr std::uint32_t kNar = 50;
}  // namespace nets

/// A mobile host as a topology wires it: the node, its regional address
/// (RCoA) under its MAP, and its protocol agents.
struct MobileHost {
  Node* node = nullptr;
  Address regional;  // the address correspondents use
  std::unique_ptr<MobileIpClient> mip;
  std::unique_ptr<MhAgent> agent;
  FlowId flow = 0;  // the CN flow the topology sends it; 0 = none
};

/// Wires mobile host `node` under `map`: the regional address on the MAP's
/// net, a MobileIpClient bound to the MAP, an MhAgent, and a radio in
/// `wlan` moved by `mobility`.
MobileHost add_mobile_host(WlanManager& wlan, Node& node, const Node& map,
                           const MhAgent::Config& cfg,
                           std::unique_ptr<MobilityModel> mobility);

/// Figure 4.1 — the hierarchical MIPv6 reference network:
///
///   CN --- GW --- MAP --+--- PAR ((AP))      MH -> moves PAR-side to
///                        \--- NAR ((AP))            NAR-side (212 m apart)
///                  PAR --- NAR (direct link, delay varied in Figs 4.9/4.10)
///
/// With `num_ars` > 2 the ARs form a line (ar1 ... arN, nets 40 + 10i),
/// each on the MAP and linked directly to its neighbours, and a host
/// walking it hands over N-1 times: every interior router acts first as
/// NAR, then as PAR.
struct PaperTopologyConfig {
  std::uint64_t seed = 1;

  /// Access routers on the line; Fig 4.1 has two (PAR, NAR).
  int num_ars = 2;

  // Wired links (bandwidth Mb/s and delay as drawn beside Fig 4.1's links;
  // the scanned figure is unreadable, values chosen to be conventional).
  // The par_nar_* values apply to every AR-AR link.
  double cn_gw_mbps = 100, gw_map_mbps = 100, map_ar_mbps = 10,
         par_nar_mbps = 10;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime par_nar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;

  // Geometry and motion (§4.1): ARs 212 m apart, ~112 m coverage
  // (12 m overlap), 10 m/s.
  double ar_distance_m = 212;
  double ap_radius_m = 112;
  double speed_mps = 10;
  bool bounce = false;  // false: one pass along the line; true: back-and-forth
  SimTime mobility_start = SimTime::millis(100);

  WlanConfig wlan;  // 200 ms L2 handoff, 1 s router advertisements
  BufferSchemeConfig scheme;
  int num_mhs = 1;
  /// MH-side knobs (BI piggybacking, start-time safety valve, the
  /// non-anticipated path, the §3.1.1 bicast baseline).
  bool use_fast_handover = true;
  bool request_buffers = true;
  bool anticipate = true;
  bool simultaneous_binding = false;
  SimTime start_time_offset;
  /// Per-attempt handover liveness deadline for every MH agent (zero =
  /// disabled; see MhAgent::Config::watchdog).
  SimTime watchdog;
  /// Control-plane retransmission/backoff, shared by the MH agents and
  /// every AR (rtx.enabled = false restores fire-and-forget signaling).
  RetransmitPolicy rtx;
};

class PaperTopology {
 public:
  explicit PaperTopology(const PaperTopologyConfig& cfg);

  /// Starts the WLAN layer (initial association + binding updates).
  void start();

  /// Duration of one pass from the first AR to the last.
  SimTime leg_duration() const;

  Simulation& simulation() { return sim_; }
  Network& network() { return *net_; }
  Node& cn() { return *cn_; }
  Node& map_router() { return *map_; }
  MapAgent& map_agent() { return *map_agent_; }
  std::size_t num_ars() const { return ars_.size(); }
  Node& ar(std::size_t i) { return *ars_.at(i); }
  ArAgent& ar_agent(std::size_t i) { return *ar_agents_.at(i); }
  /// The direct link from AR `i` to AR `i + 1`, carrying their handover
  /// tunnel.
  DuplexLink& ar_link(std::size_t i) { return *ar_links_.at(i); }
  // Fig 4.1's names for the first two ARs and their APs and link.
  Node& par() { return ar(0); }
  Node& nar() { return ar(1); }
  ArAgent& par_agent() { return ar_agent(0); }
  ArAgent& nar_agent() { return ar_agent(1); }
  DuplexLink& par_nar_link() { return ar_link(0); }
  AccessPoint& ap_par() { return *aps_.at(0); }
  AccessPoint& ap_nar() { return *aps_.at(1); }
  WlanManager& wlan() { return *wlan_; }
  MobileHost& mobile(std::size_t i) { return mobiles_.at(i); }
  std::size_t num_mobiles() const { return mobiles_.size(); }
  const PaperTopologyConfig& config() const { return cfg_; }
  /// Per-attempt inter-AR handover outcomes across all mobiles.
  const HandoverOutcomeRecorder& outcomes() const {
    return sim_.timeline().outcomes();
  }

 private:
  PaperTopologyConfig cfg_;
  Simulation sim_;
  std::unique_ptr<Network> net_;
  Node* cn_ = nullptr;
  Node* gw_ = nullptr;
  Node* map_ = nullptr;
  std::vector<Node*> ars_;
  std::vector<DuplexLink*> ar_links_;
  std::unique_ptr<MapAgent> map_agent_;
  std::vector<std::unique_ptr<ArAgent>> ar_agents_;
  std::unique_ptr<WlanManager> wlan_;
  std::vector<AccessPoint*> aps_;
  std::vector<MobileHost> mobiles_;
};

}  // namespace fhmip
