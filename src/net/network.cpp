#include "net/network.hpp"

#include <limits>
#include <queue>
#include <unordered_map>

namespace fhmip {

Node& Network::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<Node>(sim_, next_node_id_++, name));
  return *nodes_.back();
}

DuplexLink& Network::connect(Node& a, Node& b, double bandwidth_bps,
                             SimTime delay, std::size_t queue_limit,
                             QueueDiscipline discipline) {
  links_.push_back(std::make_unique<DuplexLink>(
      sim_, a, b, bandwidth_bps, delay, queue_limit,
      a.name() + "-" + b.name(), discipline));
  return *links_.back();
}

void Network::compute_routes() {
  // Adjacency: node index -> (neighbor index, link toward neighbor, cost).
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes_.size(); ++i) index[nodes_[i].get()] = i;

  struct Edge {
    std::size_t to;
    SimplexLink* link;
    std::int64_t cost;
  };
  std::vector<std::vector<Edge>> adj(nodes_.size());
  for (auto& l : links_) {
    const std::size_t ia = index.at(&l->a());
    const std::size_t ib = index.at(&l->b());
    // Cost: propagation delay plus one microsecond "hop" charge so
    // zero-delay links still cost something and route lengths stay finite
    // and comparable.
    const std::int64_t cab =
        (l->a_to_b().delay() + SimTime::micros(1)).ns();
    adj[ia].push_back({ib, &l->a_to_b(), cab});
    adj[ib].push_back({ia, &l->b_to_a(), cab});
  }

  for (std::size_t src = 0; src < nodes_.size(); ++src) {
    // A node with no wired edge (a mobile host) reaches nothing, so a run
    // from it would install no route.
    if (adj[src].empty()) continue;
    // Dijkstra from src; record the first-hop link used to reach each node.
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> dist(nodes_.size(), kInf);
    std::vector<SimplexLink*> first_hop(nodes_.size(), nullptr);
    using Item = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const Edge& e : adj[u]) {
        const std::int64_t nd = d + e.cost;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          first_hop[e.to] = (u == src) ? e.link : first_hop[u];
          pq.push({nd, e.to});
        }
      }
    }
    // Install a prefix route on src for every advertised net owned by a
    // reachable node. Nets owned by src itself get no route here (local
    // delivery / agent handlers take care of them).
    for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
      if (dst == src || first_hop[dst] == nullptr) continue;
      for (const auto& [addr, advertised] : nodes_[dst]->addresses()) {
        if (!advertised) continue;
        bool owned_by_src = false;
        for (const auto& [own, adv] : nodes_[src]->addresses()) {
          if (adv && own.net == addr.net) owned_by_src = true;
        }
        if (!owned_by_src) {
          nodes_[src]->routes().set_prefix_route(addr.net,
                                                 Route::via(*first_hop[dst]));
        }
      }
    }
  }
}

}  // namespace fhmip
