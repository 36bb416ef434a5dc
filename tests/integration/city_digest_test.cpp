// Multi-AR behaviour digest: a small city where hosts retarget between
// overlapping cells and the centre access router crashes mid-run, so PAR
// and NAR contexts coexist on one router, get torn down in bulk, and are
// rebuilt. The paper topologies have two ARs and one target; this
// run is the wall's view of every path they cannot reach.
//
// The first expected digest was produced by the per-role context maps in
// ArAgent (one map each for PAR, NAR and intra-AR contexts, torn down map
// by map in that order on a crash) by running this test against that
// implementation and copying the printed value. Any refactor of the agent
// must reproduce it bit for bit. The lazy link transmitter (one event per
// hop) re-derived it once: it reorders events that share one ns, which
// this order-sensitive digest sees, while the tie-blind digest of the
// second test kept its value across that change. The seed and the crash
// instant were picked by scanning seeds for a moment when the centre AR
// holds packets in both PAR and NAR buffers, which the test asserts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fault/crash.hpp"
#include "scenario/city_topology.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

// FNV-1a over the little-endian bytes of each logged word.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  // Hashes the terminating NUL too, so "ab"+"c" differs from "a"+"bc".
  void add_str(const char* s) {
    do {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ull;
    } while (*s++ != '\0');
  }
};

// A trace event without its packet uid: uids are issued in creation
// order, so two packets made in the same ns swap uids when their events
// swap places.
using TraceKey = std::tuple<int, std::string, int>;  // kind, where, reason+1
using RecordKey = std::tuple<MhId, int, std::string, std::uint32_t>;

// Folds a time-ordered stream into an FNV digest that ignores the order
// of items sharing one ns: each instant's items are sorted before they
// are hashed, after the instant itself and its item count.
template <typename Key>
class TieFreeFold {
 public:
  void add(SimTime at, Key key) {
    if (at != at_) flush();
    at_ = at;
    batch_.push_back(std::move(key));
  }
  void finish(Fnv& out) {
    flush();
    out.add(done_.h);
  }

 private:
  void flush() {
    if (batch_.empty()) return;
    std::sort(batch_.begin(), batch_.end());
    done_.add(static_cast<std::uint64_t>(at_.ns()));
    done_.add(batch_.size());
    for (const Key& k : batch_) {
      std::apply(
          [this](const auto&... f) { (add_field(f), ...); }, k);
    }
    batch_.clear();
  }
  void add_field(const std::string& s) { done_.add_str(s.c_str()); }
  template <typename T>
  void add_field(T v) {
    done_.add(static_cast<std::uint64_t>(v));
  }

  SimTime at_;
  std::vector<Key> batch_;
  Fnv done_;
};

struct CityDigest {
  std::uint64_t digest = 0;
  std::uint64_t tie_free_digest = 0;  // blind to order within one ns
  std::uint64_t trace_events = 0;
  std::uint64_t fault_drops = 0;
  std::size_t par_at_crash = 0;  // contexts the centre AR held
  std::size_t nar_at_crash = 0;
  std::uint32_t par_held_at_crash = 0;  // packets in those contexts' buffers
  std::uint32_t nar_held_at_crash = 0;
};

constexpr std::size_t kCentreAr = 4;  // row 1, column 1 of the 3x3 grid
constexpr SimTime kCrashAt = SimTime::millis(3650);

CityDigest run_city() {
  CityConfig cfg;
  cfg.seed = 6;
  cfg.ar_rows = cfg.ar_cols = 3;
  cfg.ap_radius_m = 152;  // full cover: neighbouring cells overlap
  cfg.wlan.tick = 20_ms;
  cfg.watchdog = 2_s;
  cfg.scheme.classify = true;
  cfg.scheme.allow_partial_grant = true;
  cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;
  // Enough pool for the PAR and the NAR to both hold grants, so both
  // buffer data (the default 20 slots leave the PAR side denied).
  cfg.scheme.pool_pkts = 200;
  cfg.population.num_mhs = 60;
  // Fast enough to cross a 92 m cell overlap inside the 2 s watchdog;
  // slower hosts anticipate for longer, the watchdog cancels the attempt,
  // and no data is ever buffered.
  cfg.population.speed_min_mps = 40;
  cfg.population.speed_max_mps = 60;
  cfg.population.active_fraction = 1.0;
  cfg.population.flow_kbps = 64;
  cfg.population.packet_bytes = 160;
  cfg.population.horizon = 10_s;
  cfg.population.traffic_start = 1_s;
  cfg.population.traffic_stop = 10_s;

  CityTopology topo(cfg);
  Simulation& sim = topo.simulation();
  CityDigest res;
  Fnv fnv;
  TieFreeFold<TraceKey> trace_fold;

  sim.trace().add_sink([&](const TraceEvent& e) {
    trace_fold.add(e.at, {static_cast<int>(e.kind), e.where,
                          e.reason ? static_cast<int>(*e.reason) + 1 : 0});
    fnv.add(static_cast<std::uint64_t>(e.at.ns()));
    fnv.add(static_cast<std::uint64_t>(e.kind));
    fnv.add_str(e.where);
    fnv.add(e.uid);
    fnv.add(e.reason ? static_cast<std::uint64_t>(*e.reason) + 1 : 0);
    ++res.trace_events;
    if (e.reason == DropReason::kFaultInjected) ++res.fault_drops;
  });

  // Counts what the centre AR holds just before the crash (this event is
  // scheduled first, so it runs first at the same instant). Packets in
  // both PAR and NAR buffers make the teardown order visible: it is the
  // order of their kFaultInjected drops.
  ArAgent& centre = topo.ar_agent(kCentreAr);
  sim.at(kCrashAt, [&] {
    auto held = [&](MhId mh, ArRole role) -> std::uint32_t {
      const HandoffBuffer* b =
          centre.buffers().buffer(BufferManager::key(mh, role));
      return b == nullptr ? 0 : b->size();
    };
    for (std::size_t i = 0; i < topo.num_mobiles(); ++i) {
      const MhId mh = topo.mobile(i).node->id();
      res.par_at_crash += centre.has_par_context(mh) ? 1 : 0;
      res.nar_at_crash += centre.has_nar_context(mh) ? 1 : 0;
      res.par_held_at_crash += held(mh, ArRole::kPar);
      res.nar_held_at_crash += held(mh, ArRole::kNar);
    }
  });
  fault::AgentCrashInjector crash(sim, centre);
  crash.crash_at(kCrashAt);

  topo.start();
  sim.run_until(cfg.population.horizon + cfg.scheme.lifetime +
                cfg.scheme.lease_grace + 3_s);

  TieFreeFold<RecordKey> record_fold;
  for (const obs::HoEventRecord& r : sim.timeline().records()) {
    fnv.add(static_cast<std::uint64_t>(r.at.ns()));
    fnv.add(r.mh);
    fnv.add(static_cast<std::uint64_t>(r.kind));
    fnv.add_str(r.where.c_str());
    fnv.add(r.attempt);
    record_fold.add(r.at, {r.mh, static_cast<int>(r.kind), r.where,
                           r.attempt});
  }
  Fnv tie_free;
  trace_fold.finish(tie_free);
  record_fold.finish(tie_free);
  // Every Counters field is a std::uint64_t; fold them all in order.
  static_assert(sizeof(ArAgent::Counters) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kWords =
      sizeof(ArAgent::Counters) / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < topo.num_ars(); ++i) {
    std::uint64_t words[kWords];
    std::memcpy(words, &topo.ar_agent(i).counters(), sizeof(words));
    for (std::uint64_t w : words) {
      fnv.add(w);
      tie_free.add(w);
    }
  }
  res.digest = fnv.h;
  res.tie_free_digest = tie_free.h;
  return res;
}

TEST(CityDigest, MultiArRunWithACrashMatchesThePerRoleMaps) {
  const CityDigest r = run_city();
  EXPECT_GE(r.par_at_crash, 1u);
  EXPECT_GE(r.nar_at_crash, 1u);
  EXPECT_GE(r.par_held_at_crash, 1u);
  EXPECT_GE(r.nar_held_at_crash, 1u);
  EXPECT_GT(r.fault_drops, 0u);
  constexpr std::uint64_t kExpected = 0xc892d0228167bca1ull;
  // On a mismatch, print the value in this test's format.
  if (r.digest != kExpected) {
    std::printf("0x%016llxull (%llu trace events, %llu fault drops)\n",
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.trace_events),
                static_cast<unsigned long long>(r.fault_drops));
  }
  EXPECT_EQ(r.digest, kExpected);
}

// The same run hashed blind to the order of events that share one ns:
// per instant, the multiset of (kind, where, reason) trace tuples and of
// timeline records, then every AR's counters. A change to how the
// scheduler breaks same-time ties moves the digest above but must leave
// this one alone; its value was produced by the two-event link
// transmitter (serialization end, then delivery) that preceded the lazy
// one.
TEST(CityDigest, MultiArRunWithACrashIsTheSameUpToSameNsTies) {
  const CityDigest r = run_city();
  constexpr std::uint64_t kExpected = 0xc54a47b06ee53efbull;
  if (r.tie_free_digest != kExpected) {
    std::printf("0x%016llxull (%llu trace events, %llu fault drops)\n",
                static_cast<unsigned long long>(r.tie_free_digest),
                static_cast<unsigned long long>(r.trace_events),
                static_cast<unsigned long long>(r.fault_drops));
  }
  EXPECT_EQ(r.tie_free_digest, kExpected);
}

}  // namespace
}  // namespace fhmip
