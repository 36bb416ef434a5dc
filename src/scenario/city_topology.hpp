#pragma once

#include <memory>
#include <vector>

#include "scenario/paper_topology.hpp"
#include "scenario/population.hpp"

namespace fhmip {

/// City-scale generalization of the Figure 4.1 hierarchy: a grid or hex
/// field of access routers (one AP each) under one or more MAPs, with a
/// whole population of mobile hosts roaming it at once.
///
///   CN --- GW --+--- MAP0 --+-- AR(0,0) ((AP))   ((AP)) AR(0,1) ...
///               |           +-- AR(1,0) ((AP))   ...
///               +--- MAP1 --+-- ...        (column bands of ARs per MAP;
///   adjacent ARs also get direct links carrying the handover tunnels)
///
/// Geometry, link rates and the population model are all parameterized so
/// one configuration drives anything from a paper-scale sanity run to
/// thousands of concurrent handovers across hundreds of ARs.
struct CityConfig {
  std::uint64_t seed = 1;

  /// AP field layout: square grid, or hexagonal packing (odd rows shifted
  /// by spacing/2, row pitch spacing*sqrt(3)/2 — denser vertical cover).
  enum class Layout { kGrid, kHex };
  Layout layout = Layout::kGrid;
  int ar_rows = 4;
  int ar_cols = 4;
  /// MAPs partition the AR field into contiguous column bands; each MH
  /// anchors (RCoA) at the MAP owning its spawn area and keeps that anchor
  /// while roaming the whole city.
  int num_maps = 1;

  double ap_spacing_m = 212;
  double ap_radius_m = 112;

  // Wired link rates. City backhaul defaults are a notch above the paper's
  // single-cell numbers so hundreds of concurrent flows don't serialize on
  // one 10 Mb/s spoke.
  double cn_gw_mbps = 1000, gw_map_mbps = 1000, map_ar_mbps = 100,
         ar_ar_mbps = 100;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime ar_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 500;

  /// City default turns handoff hysteresis on: a population freezing at
  /// the walk horizon otherwise strands hosts in overlapping exit margins,
  /// where they flap between two APs (and re-run the buffer handshake)
  /// forever.
  CityConfig() { wlan.handoff_hysteresis_m = 4.0; }

  WlanConfig wlan;
  BufferSchemeConfig scheme;
  RetransmitPolicy rtx;
  /// Per-attempt liveness deadline for every MH (zero = disabled); city
  /// runs should set it so a wedged host becomes a typed failure, not a
  /// hang (see MhAgent::Config::watchdog).
  SimTime watchdog;

  PopulationConfig population;
};

class CityTopology {
 public:
  explicit CityTopology(const CityConfig& cfg);

  /// A host anchored at the MAP of its spawn area.
  using Mobile = MobileHost;

  /// Starts the WLAN layer; traffic sources are armed at construction and
  /// fire on their own schedule.
  void start();

  Simulation& simulation() { return sim_; }
  Network& network() { return *net_; }
  Node& cn() { return *cn_; }
  std::size_t num_maps() const { return maps_.size(); }
  Node& map_router(std::size_t k) { return *maps_.at(k); }
  MapAgent& map_agent(std::size_t k) { return *map_agents_.at(k); }
  std::size_t num_ars() const { return ars_.size(); }
  Node& ar(std::size_t i) { return *ars_.at(i); }
  ArAgent& ar_agent(std::size_t i) { return *ar_agents_.at(i); }
  /// MAP band index of AR `i`.
  std::size_t map_of_ar(std::size_t i) const;
  WlanManager& wlan() { return *wlan_; }
  Mobile& mobile(std::size_t i) { return mobiles_.at(i); }
  std::size_t num_mobiles() const { return mobiles_.size(); }
  const HandoverOutcomeRecorder& outcomes() const {
    return sim_.timeline().outcomes();
  }
  const CityConfig& config() const { return cfg_; }
  /// Direct inter-AR links (handover tunnel paths) for fault harnesses.
  const std::vector<DuplexLink*>& ar_ar_links() const { return ar_links_; }
  /// Buffer slots still leased across every AR (0 after quiesce = no leaks).
  std::uint64_t leased_total() const;

  /// AP center position of AR `i` for the configured layout (static helper
  /// so tests can reason about the geometry without building a topology).
  static Vec2 ap_position(const CityConfig& cfg, int row, int col);

 private:
  CityConfig cfg_;
  Simulation sim_;
  std::unique_ptr<Network> net_;
  Node* cn_ = nullptr;
  Node* gw_ = nullptr;
  std::vector<Node*> maps_;
  std::vector<Node*> ars_;
  std::vector<std::unique_ptr<MapAgent>> map_agents_;
  std::vector<std::unique_ptr<ArAgent>> ar_agents_;
  std::vector<DuplexLink*> ar_links_;
  std::unique_ptr<WlanManager> wlan_;
  std::vector<Mobile> mobiles_;
  std::vector<std::unique_ptr<UdpSink>> sinks_;
  std::vector<std::unique_ptr<CbrSource>> sources_;
};

}  // namespace fhmip
