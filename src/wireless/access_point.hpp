#pragma once

#include "net/node.hpp"
#include "wireless/mobility.hpp"

namespace fhmip {

class SimplexLink;
class WlanManager;

/// Receives attachment events for mobile hosts under an access router.
/// Implemented by the Fast Handover AR agent.
class ArAttachListener {
 public:
  virtual ~ArAttachListener() = default;
  /// The MH completed a link-layer attach under one of this AR's APs.
  /// `downlink` is the wireless link the AR should use to reach it.
  virtual void on_mh_attached(MhId mh, NodeId ap, SimplexLink& downlink) = 0;
  /// The MH went dark (handoff blackout or left coverage).
  virtual void on_mh_detached(MhId mh) = 0;

 protected:
  /// The access router owning access point `ap` in the WLAN this
  /// listener's APs were added to; nullptr when unknown. The PAR maps the
  /// link-layer target an MH names in its RtSolPr to the NAR through it.
  Node* ar_of_ap(NodeId ap) const;

 private:
  friend class WlanManager;  // add_ap binds wlan_
  // Outlives the events that call ar_of_ap (the topology owns both).
  const WlanManager* wlan_ = nullptr;
};

/// An IEEE 802.11 access point: fixed position, circular coverage, bridges
/// to its access router's node. Per-MH radio links are owned by WlanManager.
class AccessPoint {
 public:
  AccessPoint(NodeId id, Node& ar_node, Vec2 pos, double radius_m,
              ArAttachListener* listener)
      : id_(id),
        ar_node_(ar_node),
        pos_(pos),
        radius_(radius_m),
        listener_(listener) {}

  NodeId id() const { return id_; }
  Node& ar_node() const { return ar_node_; }
  Vec2 position() const { return pos_; }
  double radius() const { return radius_; }
  ArAttachListener* listener() const { return listener_; }

  bool covers(Vec2 p) const { return distance(p, pos_) <= radius_; }
  double distance_to(Vec2 p) const { return distance(p, pos_); }

 private:
  NodeId id_;
  Node& ar_node_;
  Vec2 pos_;
  double radius_;
  ArAttachListener* listener_;
};

}  // namespace fhmip
