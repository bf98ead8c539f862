// efd cycle benchmark: the whole Edge Fabric controller cycle, end to end.
//
// One process runs a real service::EfdService (efd) and a real
// service::PeeringRouterService (prd) on their own event-loop threads;
// the main thread is the generator. Each window the generator sends BMP
// route churn over TCP, EFS1 DemandRate datagrams over UDP and a
// WindowClose marker, then waits until the cycle that marker triggered
// has been announced to prd and applied in prd's Adj-RIB-In. The loop is
// closed with one client: window k+1 leaves only after window k's
// overrides are applied.
//
// Workloads (both at --prefixes x 3 routes, default 100k):
//   steady  journal on, 1% demand churn, no route change (BMP carries only
//           withdraws of prefixes no peer announced)
//   churn   journal off, 2% BMP route churn + 1% demand churn, and every
//           twelfth window the hot interfaces' demand rises 30% for three
//           windows
//
// With --trace 1 every other surge period of live windows is traced (spans
// at the generator's barriers), and the same inputs are then replayed
// in-process through each layer's public functions with one span per
// call. The last stdout line is one JSON object; see perfbench/NOTES.md
// for the metric map; perfbench/run.py builds and runs it.
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/journal.h"
#include "audit/snapshot.h"
#include "bgp/policy.h"
#include "bgp/wire.h"
#include "bmp/collector.h"
#include "bmp/wire.h"
#include "core/controller.h"
#include "io/socket.h"
#include "net/log.h"
#include "net/rng.h"
#include "service/auditor.h"
#include "service/efd.h"
#include "service/prd.h"
#include "telemetry/sflow_wire.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace {

using namespace ef;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const Clock::time_point kProcessStart = Clock::now();
constexpr auto kBarrier = std::chrono::milliseconds(20000);
constexpr std::uint32_t kOverrideLocalPref = 1000;
const net::SimTime kCyclePeriod = net::SimTime::seconds(30);

/// Feed time of window j: each window advances one 30 s cycle period.
net::SimTime feed_time(std::uint64_t j) {
  return net::SimTime::seconds(30.0 * static_cast<double>(j + 1));
}

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// 64-bit FNV-1a, the digest every run prints for its inputs and
/// decisions.
struct Fnv {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) {
      hash ^= b;
      hash *= 1099511628211ull;
    }
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Options

enum class Workload { kSteady, kChurn };

struct Options {
  Workload workload = Workload::kSteady;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  int prefixes = 100000;
  int max_windows = 0;  // 0 = bounded by --seconds only
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "efd_cycle_bench: " << why << "\n"
            << "usage: efd_cycle_bench --workload steady|churn "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE] [--prefixes N] [--max-windows N]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    const auto as_long = [&](long lo, long hi) {
      const long v = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || v < lo || v > hi) {
        usage("bad value for " + flag + ": " + value);
      }
      return v;
    };
    if (flag == "--workload") {
      have_workload = true;
      o.workload_name = value;
      if (value == "steady") {
        o.workload = Workload::kSteady;
      } else if (value == "churn") {
        o.workload = Workload::kChurn;
      } else {
        usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad seed " + value);
      o.seed = v;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 120) {
        usage("bad seconds " + value);
      }
    } else if (flag == "--trace") {
      o.trace = as_long(0, 1) == 1;
    } else if (flag == "--workdir") {
      have_workdir = true;
      o.workdir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--prefixes") {
      o.prefixes = static_cast<int>(as_long(500, 1000000));
    } else if (flag == "--max-windows") {
      o.max_windows = static_cast<int>(as_long(0, 1000000));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_workdir) usage("--workdir is required");
  return o;
}

// ---------------------------------------------------------------------------
// Input generation. Everything below is a pure function of (world seed,
// workload, prefix count); efd only ever sees the bytes it produces.

struct Peering {
  net::IpAddr addr;
  std::uint32_t as = 0;
  bgp::PeerType type = bgp::PeerType::kPrivatePeer;
  std::size_t iface = 0;  // index into Generator::ifaces_
};

struct Window {
  std::vector<std::uint8_t> bmp;                  // route churn
  std::vector<std::vector<std::uint8_t>> demand;  // EFS1 datagrams
  bool surge_rise = false;
};

struct Inputs {
  std::vector<std::uint8_t> full_table;
  std::size_t full_table_routes = 0;
  std::vector<std::vector<std::uint8_t>> window0;  // every prefix's rate
  /// windows[i] is window i+1. Past the end, the sequence wraps to
  /// kWrapStart: the generator proves the state before kWrapStart equals
  /// the state after the last stored window, so a wrapped run still
  /// sends only genuine changes (its BMP timestamps repeat; no ranking
  /// here ties down to route age).
  std::vector<Window> windows;
  std::uint64_t bmp_digest = 0;
  std::uint64_t efs1_digest = 0;
  std::size_t hot_prefixes = 0;
  std::size_t interfaces = 0;
  std::size_t hot_interfaces = 0;
};

// Every churn pattern repeats after kPeriod windows: demand churn walks
// kDemandBlocks blocks (~1% each) and alternates its factor per pass;
// route churn walks the same blocks for alternate-route changes and
// 2 x kDemandBlocks blocks for best-route withdraw/re-announce; surges
// repeat every kSurgeEvery windows, which divides kPeriod. A quarter of the
// windows are in a surge, so cycle_ms_p50 stays on typical windows and
// p90 on the surge edges; with surges half the time the median sat on the
// boundary between the two and jumped between them run to run.
constexpr int kDemandBlocks = 102;
constexpr int kPeriod = 2 * kDemandBlocks;
constexpr int kWrapStart = 13;
constexpr int kStoredWindows = kWrapStart + kPeriod - 1;
constexpr double kSurgeFactor = 1.3;
constexpr int kSurgeEvery = 12;
static_assert(kPeriod % kSurgeEvery == 0);
constexpr std::uint32_t kTransitAs = 174;  // mid-path AS of third routes
constexpr double kHotUtilization = 0.97;   // just over the 0.95 threshold
constexpr double kHotPrefixShare = 0.32;   // of prefixes, best via hot ports

std::size_t window_slot(std::uint64_t j) {
  const std::uint64_t index =
      j <= static_cast<std::uint64_t>(kStoredWindows)
          ? j
          : kWrapStart + (j - kWrapStart) % kPeriod;
  return static_cast<std::size_t>(index - 1);
}

const char* peer_type_tlv(bgp::PeerType type) {
  switch (type) {
    case bgp::PeerType::kPrivatePeer: return "peer-type=private";
    case bgp::PeerType::kPublicPeer: return "peer-type=public";
    case bgp::PeerType::kRouteServer: return "peer-type=route-server";
    case bgp::PeerType::kTransit: return "peer-type=transit";
    default: return "peer-type=internal";
  }
}

class Generator {
 public:
  Generator(const topology::Pop& pop, Workload workload, std::uint64_t seed,
            int prefix_count)
      : workload_(workload),
        local_as_(pop.world().config().local_as.value()),
        rng_(seed ^ 0x9e3779b97f4a7c15ull) {
    EF_CHECK(local_as_ != kTransitAs, "transit AS collides with the PoP's AS");
    build_topology(pop);
    build_prefixes(static_cast<std::size_t>(prefix_count));
  }

  Inputs generate() {
    Inputs in;
    in.interfaces = ifaces_.size();
    in.hot_interfaces = static_cast<std::size_t>(
        std::count(hot_iface_.begin(), hot_iface_.end(), true));
    in.hot_prefixes = static_cast<std::size_t>(
        std::count(hot_.begin(), hot_.end(), std::uint8_t{1}));
    Fnv bmp_fnv, efs1_fnv;

    // Full-table dump: Initiation, one PeerUp per peering, then every
    // route of every prefix.
    append(in.full_table, bmp::InitiationMsg{"bench-pop0", "efd_cycle_bench"});
    for (std::size_t i = 0; i < peerings_.size(); ++i) {
      bmp::PeerUpMsg up;
      up.peer = header(i, net::SimTime::seconds(1));
      up.local_addr = net::IpAddr::v4(0x0a0000feu);
      up.information.push_back(peer_type_tlv(peerings_[i].type));
      append(in.full_table, up);
    }
    for (std::size_t p = 0; p < prefixes_.size(); ++p) {
      for (int r = 0; r < 3; ++r) {
        append(in.full_table, announce(p, r, net::SimTime::seconds(1)));
        ++in.full_table_routes;
      }
    }
    bmp_fnv.add(in.full_table);

    std::vector<std::size_t> all(prefixes_.size());
    for (std::size_t p = 0; p < all.size(); ++p) all[p] = p;
    in.window0 = encode_rates(all);
    for (const auto& d : in.window0) efs1_fnv.add(d);

    std::uint64_t state_at_wrap = 0;
    in.windows.reserve(kStoredWindows);
    for (int j = 1; j <= kStoredWindows; ++j) {
      if (j == kWrapStart) state_at_wrap = state_hash();
      in.windows.push_back(make_window(j));
      bmp_fnv.add(in.windows.back().bmp);
      for (const auto& d : in.windows.back().demand) efs1_fnv.add(d);
    }
    EF_CHECK(state_hash() == state_at_wrap,
             "generator: churn pattern is not periodic");
    in.bmp_digest = bmp_fnv.hash;
    in.efs1_digest = efs1_fnv.hash;
    return in;
  }

 private:
  void build_topology(const topology::Pop& pop) {
    const auto& defs = pop.def().peerings;
    std::map<std::uint32_t, std::size_t> iface_index;  // InterfaceId -> idx
    for (std::size_t i = 0; i < defs.size(); ++i) {
      bgp::Route probe;
      probe.attrs.next_hop = pop.peering_address(i);
      const auto egress = pop.egress_of_route(probe);
      if (!egress) continue;
      const std::uint32_t id = egress->interface.value();
      auto [it, inserted] = iface_index.emplace(id, ifaces_.size());
      if (inserted) {
        ifaces_.push_back(egress->interface);
        capacity_.push_back(
            pop.interfaces().usable_capacity(egress->interface)
                .bits_per_sec());
      }
      peerings_.push_back(Peering{probe.attrs.next_hop, defs[i].as.value(),
                                  defs[i].type, it->second});
    }
    EF_CHECK(ifaces_.size() >= 4, "PoP has too few egress interfaces");
    // A quarter of the interfaces run hot, picked by seeded shuffle.
    std::vector<std::size_t> order(ifaces_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    hot_iface_.assign(ifaces_.size(), false);
    const std::size_t hot_count = std::max<std::size_t>(1, ifaces_.size() / 4);
    for (std::size_t k = 0; k < hot_count; ++k) hot_iface_[order[k]] = true;
    for (std::size_t i = 0; i < ifaces_.size(); ++i) {
      std::vector<std::size_t> on;
      for (std::size_t p = 0; p < peerings_.size(); ++p) {
        if (peerings_[p].iface == i) on.push_back(p);
      }
      peerings_on_.push_back(std::move(on));
    }
  }

  std::size_t pick(const std::vector<std::size_t>& from) {
    return from[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  }

  void build_prefixes(std::size_t count) {
    std::vector<std::size_t> hot_ifaces, cold_ifaces;
    for (std::size_t i = 0; i < ifaces_.size(); ++i) {
      (hot_iface_[i] ? hot_ifaces : cold_ifaces).push_back(i);
    }
    prefixes_.reserve(count);
    routes_.reserve(count);
    std::vector<double> load(ifaces_.size(), 0.0);
    for (std::size_t p = 0; p < count; ++p) {
      prefixes_.emplace_back(
          net::IpAddr::v4(0x64000000u + (static_cast<std::uint32_t>(p) << 8)),
          24);
      const bool hot = rng_.bernoulli(kHotPrefixShare);
      const std::size_t best_iface = pick(hot ? hot_ifaces : cold_ifaces);
      std::array<std::size_t, 3> r{};
      r[0] = pick(peerings_on_[best_iface]);
      // Alternates leave the best route's interface; a hot prefix's
      // alternates also avoid hot interfaces so its detours have room.
      std::vector<std::size_t> alts;
      for (std::size_t q = 0; q < peerings_.size(); ++q) {
        const std::size_t iface = peerings_[q].iface;
        if (iface == best_iface) continue;
        if (hot && hot_iface_[iface]) continue;
        alts.push_back(q);
      }
      EF_CHECK(alts.size() >= 2, "too few alternate peerings");
      r[1] = pick(alts);
      do {
        r[2] = pick(alts);
      } while (r[2] == r[1]);
      routes_.push_back(r);
      // Every router's loop check drops a path through the PoP's own AS,
      // so a real BMP feed never carries one: neither may these routes.
      std::uint32_t origin = 0;
      do {
        origin = static_cast<std::uint32_t>(rng_.uniform_int(100, 59999));
      } while (origin == local_as_ || origin == kTransitAs);
      origin_as_.push_back(origin);
      hot_.push_back(hot ? 1 : 0);
      const double elephant = rng_.bernoulli(0.01) ? 3.0 : 1.0;
      base_.push_back(rng_.uniform(5e6, 50e6) * elephant);
      load[best_iface] += base_.back();
    }
    // Calibrate against the PoP's own capacities: natural load depends
    // only on the best route, so scaling each interface's prefixes puts
    // hot interfaces just over the threshold and the rest near 50%.
    std::vector<double> scale(ifaces_.size(), 1.0);
    for (std::size_t i = 0; i < ifaces_.size(); ++i) {
      const double target =
          hot_iface_[i] ? kHotUtilization : rng_.uniform(0.45, 0.55);
      if (load[i] > 0) scale[i] = target * capacity_[i] / load[i];
    }
    for (std::size_t p = 0; p < count; ++p) {
      base_[p] *= scale[peerings_[routes_[p][0]].iface];
    }
    factor_.assign(count, 2);  // "pass -1": the pre-churn factor
    alt_toggled_.assign(count, 0);
    withdrawn_.assign(count, 0);
    rate_.resize(count);
    for (std::size_t p = 0; p < count; ++p) rate_[p] = target_rate(p);
  }

  double target_rate(std::size_t p) const {
    const double churn = 1.0 + 0.001 * factor_[p];
    const double surge = surge_on_ && hot_[p] ? kSurgeFactor : 1.0;
    return std::round(base_[p] * churn * surge);
  }

  bmp::PerPeerHeader header(std::size_t peering, net::SimTime when) const {
    bmp::PerPeerHeader h;
    h.peer_addr = peerings_[peering].addr;
    h.peer_as = peerings_[peering].as;
    h.peer_bgp_id = static_cast<std::uint32_t>(peering + 1);
    h.timestamp = when;
    return h;
  }

  bmp::RouteMonitoringMsg announce(std::size_t p, int r,
                                   net::SimTime when) const {
    const Peering& peer = peerings_[routes_[p][static_cast<std::size_t>(r)]];
    bmp::RouteMonitoringMsg msg;
    msg.peer = header(routes_[p][static_cast<std::size_t>(r)], when);
    bgp::PathAttributes& a = msg.update.attrs;
    a.next_hop = peer.addr;
    a.has_local_pref = true;
    const bgp::AsNumber first(peer.as), origin(origin_as_[p]),
        transit(kTransitAs);
    const bool toggled = alt_toggled_[p] != 0;
    if (r == 0) {
      a.local_pref = bgp::LocalPref(300);
      a.as_path = bgp::AsPath{first, origin};
    } else if (r == 1) {
      a.local_pref = bgp::LocalPref(toggled && p % 2 == 0 ? 285 : 290);
      a.as_path = bgp::AsPath{first, origin};
    } else {
      a.local_pref = bgp::LocalPref(280);
      a.as_path = toggled && p % 2 == 1
                      ? bgp::AsPath{first, first, transit, origin}
                      : bgp::AsPath{first, transit, origin};
    }
    msg.update.nlri.push_back(prefixes_[p]);
    return msg;
  }

  static void append(std::vector<std::uint8_t>& out,
                     const bmp::BmpMessage& msg) {
    const std::vector<std::uint8_t> bytes = bmp::encode(msg);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  std::vector<std::vector<std::uint8_t>> encode_rates(
      const std::vector<std::size_t>& which) const {
    constexpr std::size_t kPerDatagram = 1000;
    std::vector<std::vector<std::uint8_t>> out;
    std::vector<telemetry::wire::SflowRecord> records;
    records.reserve(kPerDatagram);
    const auto flush = [&] {
      if (records.empty()) return;
      out.push_back(telemetry::wire::encode_datagram(records));
      EF_CHECK(out.back().size() <= telemetry::wire::kMaxDatagramBytes,
               "EFS1 datagram too large");
      records.clear();
    };
    for (std::size_t p : which) {
      records.emplace_back(telemetry::wire::DemandRate{
          prefixes_[p], net::Bandwidth::bps(rate_[p])});
      if (records.size() == kPerDatagram) flush();
    }
    flush();
    return out;
  }

  Window make_window(int j) {
    Window w;
    const net::SimTime when = feed_time(j);
    const std::size_t n = prefixes_.size();
    const auto block = [n](int b, int blocks) {
      std::vector<std::size_t> out;
      for (std::size_t p = static_cast<std::size_t>(b); p < n;
           p += static_cast<std::size_t>(blocks)) {
        out.push_back(p);
      }
      return out;
    };

    if (workload_ == Workload::kChurn) {
      // 1%: an alternate route changes LOCAL_PREF (even prefixes) or
      // AS-path length (odd prefixes).
      for (std::size_t p : block((j - 1 + kDemandBlocks / 2) % kDemandBlocks,
                                 kDemandBlocks)) {
        alt_toggled_[p] ^= 1;
        append(w.bmp, announce(p, p % 2 == 0 ? 1 : 2, when));
      }
      // 0.5%: best routes withdrawn; last window's block re-announced.
      for (std::size_t p : block((j - 1) % kPeriod, kPeriod)) {
        if (withdrawn_[p]) continue;
        withdrawn_[p] = 1;
        bmp::RouteMonitoringMsg msg;
        msg.peer = header(routes_[p][0], when);
        msg.update.withdrawn.push_back(prefixes_[p]);
        append(w.bmp, msg);
      }
      if (j >= 2) {
        for (std::size_t p : block((j - 2) % kPeriod, kPeriod)) {
          if (!withdrawn_[p]) continue;
          withdrawn_[p] = 0;
          append(w.bmp, announce(p, 0, when));
        }
      }
    } else {
      // A real BMP feed is never silent. steady's carries withdraws for
      // 0.1% as many prefixes, none of which any peer announced: the RIB
      // is untouched and nothing turns dirty, but every window still
      // goes through BMP decode, collector apply and the BMP barrier.
      const std::size_t count = std::max<std::size_t>(1, n / 1000);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k =
            static_cast<std::size_t>((j - 1) % kDemandBlocks) * count + i;
        bmp::RouteMonitoringMsg msg;
        msg.peer = header(k % peerings_.size(), when);
        msg.update.withdrawn.emplace_back(
            net::IpAddr::v4(0x0b000000u +
                            (static_cast<std::uint32_t>(k % 65536) << 8)),
            24);
        append(w.bmp, msg);
      }
    }

    std::set<std::size_t> touched;
    const int phase = j % kSurgeEvery;
    if (workload_ == Workload::kChurn && j >= kSurgeEvery && phase == 0) {
      surge_on_ = true;
      w.surge_rise = true;
    } else if (workload_ == Workload::kChurn && phase == 3 && surge_on_) {
      surge_on_ = false;
    }
    const int pass = (j - 1) / kDemandBlocks;
    for (std::size_t p : block((j - 1) % kDemandBlocks, kDemandBlocks)) {
      factor_[p] = pass % 2 == 0 ? 1 : 2;
      touched.insert(p);
    }
    if (workload_ == Workload::kChurn && (phase == 0 || phase == 3)) {
      for (std::size_t p = 0; p < n; ++p) {
        if (hot_[p]) touched.insert(p);
      }
    }
    std::vector<std::size_t> changed;
    for (std::size_t p : touched) {
      const double r = target_rate(p);
      if (r == rate_[p]) continue;
      rate_[p] = r;
      changed.push_back(p);
    }
    w.demand = encode_rates(changed);
    return w;
  }

  std::uint64_t state_hash() const {
    Fnv f;
    for (std::size_t p = 0; p < prefixes_.size(); ++p) {
      std::uint64_t bits;
      std::memcpy(&bits, &rate_[p], sizeof bits);
      f.add_u64(bits);
      f.add_u64(static_cast<std::uint64_t>(alt_toggled_[p]) |
                (static_cast<std::uint64_t>(withdrawn_[p]) << 1));
    }
    f.add_u64(surge_on_ ? 1 : 0);
    return f.hash;
  }

  Workload workload_;
  std::uint32_t local_as_;
  net::Rng rng_;
  std::vector<Peering> peerings_;
  std::vector<telemetry::InterfaceId> ifaces_;
  std::vector<double> capacity_;
  std::vector<bool> hot_iface_;
  std::vector<std::vector<std::size_t>> peerings_on_;

  std::vector<net::Prefix> prefixes_;
  std::vector<std::array<std::size_t, 3>> routes_;  // peering per route
  std::vector<std::uint32_t> origin_as_;
  std::vector<std::uint8_t> hot_;
  std::vector<double> base_;
  // Mutable churn state.
  std::vector<int> factor_;  // churn factor index: rate x (1 + 0.001 f)
  std::vector<std::uint8_t> alt_toggled_;
  std::vector<std::uint8_t> withdrawn_;
  std::vector<double> rate_;
  bool surge_on_ = false;
};

std::vector<std::uint8_t> close_datagram(std::uint64_t j) {
  const net::SimTime now = feed_time(j);
  const telemetry::wire::SflowRecord close =
      telemetry::wire::WindowClose{now, now};
  return telemetry::wire::encode_datagram(std::span(&close, 1));
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written at exit, reduced to self time.

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int window = -1;
};

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - kProcessStart)
      .count();
}

class Tracer {
 public:
  bool enabled = false;

  int open(const char* name, int parent, int window) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, ns_of(Clock::now()), 0, parent, window});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns_of(Clock::now());
  }
  int add(const char* name, Clock::time_point a, Clock::time_point b,
          int parent, int window) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, ns_of(a), ns_of(b), parent, window});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Summed self time of every `name` span: its duration minus the part
  /// its direct children cover.
  double self_ms(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += ms(s);
      if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name) {
        sum -= ms(s);
      }
    }
    return sum;
  }

  /// Number of `name` spans.
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(std::count_if(
        spans_.begin(), spans_.end(),
        [&](const Span& s) { return s.name == name; }));
  }

  /// Summed duration of every `name` span, children included.
  double total_ms(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += ms(s);
    }
    return sum;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"window\":" << s.window
          << "}\n";
    }
  }

 private:
  static double ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The live rig: world, PoP, prd, efd and the generator's sockets.

struct ReadbackLog {
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
  std::vector<std::size_t> routes;
};

core::ControllerConfig controller_config() {
  core::ControllerConfig c;
  c.enforcement = core::Enforcement::kShadow;
  c.cycle_period = kCyclePeriod;
  c.override_local_pref = kOverrideLocalPref;
  c.incremental = true;
  c.alloc_threads = 1;
  return c;
}

bool journal_on(Workload w) { return w == Workload::kSteady; }

/// CPU time (user + system) of the whole process (RUSAGE_SELF) or of the
/// calling thread (RUSAGE_THREAD).
double cpu_ms_now(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// A journal path that is a FIFO, drained by a thread of its own that
/// counts the bytes and drops them. audit::JournalWriter only ever
/// appends, and `steady` journals ~26 MB per cycle, so a regular file
/// would grow by gigabytes in one run: past the file-size limit a host
/// may set (the writer dies of SIGXFSZ) and into disk writeback stalls
/// that would measure the disk, not efd. Through the pipe the writer
/// still makes every write() call.
class JournalSink {
 public:
  JournalSink() = default;
  JournalSink(const JournalSink&) = delete;
  JournalSink& operator=(const JournalSink&) = delete;
  ~JournalSink() {
    finish();
    if (fd_ >= 0) ::close(fd_);
  }

  /// Creates the FIFO at `path` and starts draining it.
  bool open(const std::string& path) {
    if (::mkfifo(path.c_str(), 0600) != 0) return false;
    // Read-write: the open does not wait for a writer, and the pipe never
    // reads as closed while efd opens and closes its end.
    fd_ = ::open(path.c_str(), O_RDWR | O_NONBLOCK | O_CLOEXEC);
    if (fd_ < 0) return false;
    ::fcntl(fd_, F_SETPIPE_SZ, 1 << 20);  // fewer wake-ups; best effort
    thread_ = std::thread([this] { drain(); });
    return true;
  }

  /// Drains what is left and stops; call once every writer is done.
  /// Returns the bytes written to the journal.
  std::uint64_t finish() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return bytes_.load();
  }

  /// CPU time the draining thread has used so far.
  double cpu_ms() const { return cpu_ms_.load(); }

 private:
  void drain() {
    std::vector<char> buf(1 << 20);
    for (;;) {
      const bool stopping = stop_.load();
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, stopping ? 0 : 20);
      ssize_t n;
      bool got = false;
      while ((n = ::read(fd_, buf.data(), buf.size())) > 0) {
        bytes_ += static_cast<std::uint64_t>(n);
        got = true;
      }
      if (got) cpu_ms_ = cpu_ms_now(RUSAGE_THREAD);
      if (stopping) return;
    }
  }

  int fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<double> cpu_ms_{0};
};

struct Rig {
  std::unique_ptr<topology::World> world;
  std::unique_ptr<topology::Pop> pop;
  Inputs inputs;
  ReadbackLog readback;
  // Declared before efd, the journal's writer, so it outlives it.
  JournalSink journal;
  // prd before efd: efd's audit read-back calls into prd, so prd must
  // outlive it.
  std::unique_ptr<service::PeeringRouterService> prd;
  std::unique_ptr<service::EfdService> efd;
  io::Fd bmp;
  io::Fd udp;
  std::string journal_path;
  std::string recovery_path;
  std::uint64_t bmp_sent = 0;
  std::uint64_t datagrams_sent = 0;
  double load_routes_per_s = 0;
  std::uint64_t setup_transitions = 0;

  ~Rig() {
    efd.reset();
    prd.reset();
  }
};

/// Blocks until prd has applied every UPDATE the announcer sent it.
bool drain_prd(Rig& rig) {
  const std::uint64_t sent = rig.efd->announcer()->updates_sent_to(0);
  const auto deadline = Clock::now() + kBarrier;
  while (rig.prd->snapshot().updates_received < sent) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

bool send_datagrams(Rig& rig,
                    const std::vector<std::vector<std::uint8_t>>& datagrams) {
  for (const auto& d : datagrams) {
    if (!io::UdpSocket::send_to(rig.udp.get(), rig.efd->sflow_port(), d)) {
      return false;
    }
    ++rig.datagrams_sent;
    if (!rig.efd->wait_for_datagrams(rig.datagrams_sent, kBarrier)) {
      return false;
    }
  }
  return true;
}

/// One complete set-up: inputs, daemons, full-table load, first cycle
/// converged at prd. Returns nullptr (with `why`) on failure.
std::unique_ptr<Rig> set_up(const Options& o, const std::string& dir,
                            std::string& why) {
  auto rig = std::make_unique<Rig>();
  topology::WorldConfig wc;
  wc.seed = o.seed;
  wc.num_clients = 40;
  wc.num_pops = 2;
  rig->world = std::make_unique<topology::World>(topology::World::generate(wc));
  rig->pop = std::make_unique<topology::Pop>(*rig->world, 0);
  rig->inputs =
      Generator(*rig->pop, o.workload, o.seed, o.prefixes).generate();

  service::PeeringRouterService::Config pc;
  pc.local_as = rig->world->config().local_as;
  rig->prd = std::make_unique<service::PeeringRouterService>(pc);
  rig->prd->start();

  fs::create_directories(dir);
  rig->journal_path = journal_on(o.workload) ? dir + "/efd.efj" : "";
  if (!rig->journal_path.empty() && !rig->journal.open(rig->journal_path)) {
    why = "cannot create the journal FIFO";
    return nullptr;
  }
  rig->recovery_path = dir + "/efd.efc";
  service::EfdConfig ec;
  ec.controller = controller_config();
  ec.failsafe.enabled = true;
  ec.journal_path = rig->journal_path;
  ec.announce_ports = {rig->prd->bgp_port()};
  ec.audit.enabled = true;
  ec.audit.interval_cycles = 1;
  Rig* raw = rig.get();
  ec.audit_read_back = [raw] {
    const auto t0 = Clock::now();
    std::vector<bgp::Route> routes = raw->prd->routes();
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(raw->readback.mu);
    raw->readback.calls.emplace_back(t0, t1);
    raw->readback.routes.push_back(routes.size());
    return routes;
  };
  ec.recovery_path = rig->recovery_path;
  ec.decode_threads = 0;
  rig->efd = std::make_unique<service::EfdService>(*rig->pop, ec);
  rig->efd->start();

  if (!rig->efd->wait_until(
          [](const service::EfdService::IngestSnapshot& s) {
            return s.bgp_sessions_established == 1;
          },
          kBarrier)) {
    why = "announcer session to prd never established";
    return nullptr;
  }
  rig->bmp = io::connect_tcp(rig->efd->bmp_port());
  rig->udp = io::connect_udp(rig->efd->sflow_port());
  if (!rig->bmp.valid() || !rig->udp.valid()) {
    why = "cannot connect to efd";
    return nullptr;
  }
  // The dump goes out in 1 MiB slices, each applied before the next is
  // sent. efd reads its socket until EAGAIN, so an unpaced 25 MB burst
  // would pile up in its read buffer by an amount that depends on thread
  // timing, and the run's peak RSS would jump between runs with it.
  constexpr std::size_t kSlice = 1 << 20;
  const std::span<const std::uint8_t> table(rig->inputs.full_table);
  const auto load0 = Clock::now();
  for (std::size_t pos = 0; pos < table.size(); pos += kSlice) {
    const auto slice = table.subspan(pos, std::min(kSlice, table.size() - pos));
    if (!io::send_all(rig->bmp.get(), slice)) {
      why = "full-table send failed";
      return nullptr;
    }
    rig->bmp_sent += slice.size();
    if (!rig->efd->wait_for_bmp_bytes(rig->bmp_sent, kBarrier)) {
      why = "full-table load timed out";
      return nullptr;
    }
  }
  rig->load_routes_per_s =
      static_cast<double>(rig->inputs.full_table_routes) /
      std::chrono::duration<double>(Clock::now() - load0).count();
  if (!send_datagrams(*rig, rig->inputs.window0)) {
    why = "window 0 demand not acknowledged";
    return nullptr;
  }
  if (!io::UdpSocket::send_to(rig->udp.get(), rig->efd->sflow_port(),
                              close_datagram(0))) {
    why = "window 0 close send failed";
    return nullptr;
  }
  ++rig->datagrams_sent;
  if (!rig->efd->wait_for_windows(1, kBarrier) || !drain_prd(*rig)) {
    why = "first cycle did not converge at prd";
    return nullptr;
  }
  const auto snap = rig->efd->ingest();
  rig->setup_transitions = snap.failsafe_transitions;
  if (snap.failsafe_mode !=
      static_cast<std::uint64_t>(audit::FailsafeMode::kHealthy)) {
    why = "ladder not healthy after the first cycle";
    return nullptr;
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Live measurement

struct LiveWindow {
  double cycle_ms = 0, churn_ms = 0, feed_ms = 0, decide_ms = 0, drain_ms = 0;
  bool traced = false;
  bool bmp = false;
};

struct LiveResult {
  std::vector<LiveWindow> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failure;
  double cpu_ms = 0;
  std::map<int, int> decide_span;  // traced window -> its live.decide span
  /// Peak RSS through set-up and the first kRssWindows windows: a fixed
  /// amount of work, so a faster efd (more windows, and so more cycle
  /// digests kept) cannot read as a memory regression.
  double peak_rss_mb = 0;
  service::EfdService::IngestSnapshot before, after;
};

constexpr std::size_t kRssWindows = 32;

double peak_rss_mb_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

LiveResult run_live(Rig& rig, const Options& o, double seconds,
                    Tracer& tracer) {
  LiveResult res;
  // Pre-encode the markers too: nothing is generated inside the loop.
  const std::size_t max_windows =
      o.max_windows > 0 ? static_cast<std::size_t>(o.max_windows) : 20000;
  std::vector<std::vector<std::uint8_t>> closes;
  closes.reserve(max_windows);
  for (std::size_t j = 1; j <= max_windows; ++j) closes.push_back(close_datagram(j));

  res.before = rig.efd->ingest();
  const double cpu0 = cpu_ms_now(RUSAGE_SELF);
  const double generator_cpu0 = cpu_ms_now(RUSAGE_THREAD);
  const double sink_cpu0 = rig.journal.cpu_ms();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::uint64_t unrepaired = res.before.audit_unrepaired;
  for (std::uint64_t j = 1; j <= max_windows; ++j) {
    if (Clock::now() >= deadline) break;
    const Window& w = rig.inputs.windows[window_slot(j)];
    LiveWindow lw;
    // Traced windows come in whole surge periods, every other period, so
    // traced and untraced windows see every surge phase equally often.
    lw.traced = tracer.enabled && (j / kSurgeEvery) % 2 == 1;
    lw.bmp = !w.bmp.empty();
    ++res.attempted;
    bool ok = true;
    std::string why;
    // A traced window opens and closes its spans at the barriers, inside
    // the timed interval, so the tracing cost lands in its cycle_ms.
    const int win = static_cast<int>(j);
    const auto open = [&](const char* name, int parent) {
      return lw.traced ? tracer.open(name, parent, win) : -1;
    };

    const auto t0 = Clock::now();
    const int root = open("live.window", -1);
    if (!w.bmp.empty()) {
      const int span = open("live.bmp_churn", root);
      ok = io::send_all(rig.bmp.get(), w.bmp);
      rig.bmp_sent += w.bmp.size();
      ok = ok && rig.efd->wait_for_bmp_bytes(rig.bmp_sent, kBarrier);
      if (!ok) why = "BMP churn barrier timed out";
      tracer.close(span);
    }
    const auto t1 = Clock::now();
    int span = open("live.demand_feed", root);
    if (ok && !send_datagrams(rig, w.demand)) {
      ok = false;
      why = "demand datagram never acknowledged";
    }
    tracer.close(span);
    const auto t2 = Clock::now();
    span = open("live.decide", root);
    if (lw.traced) res.decide_span[win] = span;
    if (ok) {
      ok = io::UdpSocket::send_to(rig.udp.get(), rig.efd->sflow_port(),
                                  closes[j - 1]);
      ++rig.datagrams_sent;
      ok = ok && rig.efd->wait_for_windows(j + 1, kBarrier);
      if (!ok) why = "window barrier timed out";
    }
    tracer.close(span);
    const auto t3 = Clock::now();
    span = open("live.enforce_drain", root);
    if (ok && !drain_prd(rig)) {
      ok = false;
      why = "prd never applied the cycle's UPDATEs";
    }
    tracer.close(span);
    tracer.close(root);
    const auto t4 = Clock::now();

    if (ok) {
      const auto snap = rig.efd->ingest();
      if (snap.failsafe_mode !=
          static_cast<std::uint64_t>(audit::FailsafeMode::kHealthy)) {
        ok = false;
        why = "failsafe ladder left healthy (mode " +
              std::to_string(snap.failsafe_mode) + ", routers down " +
              std::to_string(snap.routers_down) + ", audit streak " +
              std::to_string(snap.audit_divergent_streak) + ")";
      } else if (snap.audit_unrepaired > unrepaired) {
        ok = false;
        why = "audit reported unrepaired divergence";
      }
      unrepaired = snap.audit_unrepaired;
    }
    if (!ok) {
      ++res.failed;
      res.failure = "window " + std::to_string(j) + ": " + why;
      break;
    }
    lw.churn_ms = ms_since(t0, t1);
    lw.feed_ms = ms_since(t1, t2);
    lw.decide_ms = ms_since(t2, t3);
    lw.drain_ms = ms_since(t3, t4);
    lw.cycle_ms = ms_since(t0, t4);
    res.windows.push_back(lw);
    if (res.windows.size() == kRssWindows) res.peak_rss_mb = peak_rss_mb_now();
  }
  // The daemons' CPU: the whole process minus the generator thread, whose
  // barrier polling would otherwise grow with the cycle's length, and
  // minus the journal sink's draining.
  res.cpu_ms = (cpu_ms_now(RUSAGE_SELF) - cpu0) -
               (cpu_ms_now(RUSAGE_THREAD) - generator_cpu0) -
               (rig.journal.cpu_ms() - sink_cpu0);
  if (res.windows.size() < kRssWindows) res.peak_rss_mb = peak_rss_mb_now();
  res.after = rig.efd->ingest();
  return res;
}

bool override_set_matches_prd(const std::vector<core::Override>& overrides,
                              const std::vector<bgp::Route>& routes,
                              std::string& why) {
  std::map<net::Prefix, const bgp::Route*> at_prd;
  for (const bgp::Route& r : routes) at_prd[r.prefix] = &r;
  if (at_prd.size() != overrides.size() || routes.size() != overrides.size()) {
    why = "prd holds " + std::to_string(routes.size()) + " routes for " +
          std::to_string(overrides.size()) + " overrides";
    return false;
  }
  for (const core::Override& o : overrides) {
    auto it = at_prd.find(o.prefix);
    if (it == at_prd.end()) {
      why = "override " + o.prefix.to_string() + " missing at prd";
      return false;
    }
    const bgp::PathAttributes& a = it->second->attrs;
    if (!(a.next_hop == o.next_hop) || !a.has_local_pref ||
        a.local_pref.value() != kOverrideLocalPref ||
        !a.has_community(core::kOverrideCommunity)) {
      why = "override " + o.prefix.to_string() + " has wrong attributes at prd";
      return false;
    }
  }
  return true;
}

void hash_overrides(Fnv& f, const std::vector<core::Override>& overrides) {
  f.add_u64(overrides.size());
  for (const core::Override& o : overrides) {
    f.add_u64(o.prefix.address().v4_value());
    f.add_u64(static_cast<std::uint64_t>(o.prefix.length()));
    f.add_u64(o.next_hop.v4_value());
    f.add_u64(o.target_interface.value());
    f.add_u64(o.from_interface.value());
    std::uint64_t bits;
    const double rate = o.rate.bits_per_sec();
    std::memcpy(&bits, &rate, sizeof bits);
    f.add_u64(bits);
  }
}

// ---------------------------------------------------------------------------
// In-process replay (traced run): the same inputs through each layer's
// public functions, one span per call, checked against efd's decisions.

struct ReplayResult {
  std::size_t windows = 0;   // measured windows replayed (excl. window 0)
  std::size_t mismatches = 0;
  std::string first_mismatch;
  std::size_t frames = 0;    // BMP frames decoded: dump + replayed windows
  std::size_t update_bytes = 0;  // encoded enforcement deltas
  std::vector<double> alloc_ms, hit_rate;
};

std::vector<bgp::Route> routes_for(
    const std::map<net::Prefix, core::Override>& set) {
  // What a converged prd holds for `set`: the auditor's read-back input.
  std::vector<bgp::Route> out;
  out.reserve(set.size());
  for (const auto& [prefix, o] : set) {
    bgp::Route r;
    r.prefix = prefix;
    r.peer_type = bgp::PeerType::kController;
    r.attrs.next_hop = o.next_hop;
    r.attrs.as_path = o.as_path;
    r.attrs.local_pref = bgp::LocalPref(kOverrideLocalPref);
    r.attrs.has_local_pref = true;
    r.attrs.communities = {core::kOverrideCommunity,
                           bgp::peer_type_community(o.target_type)};
    out.push_back(std::move(r));
  }
  return out;
}

ReplayResult run_replay(
    Rig& rig, const Options& o, const std::string& dir,
    const std::vector<service::EfdService::CycleDigest>& digests,
    std::size_t live_windows, double seconds, Tracer& tracer) {
  ReplayResult res;
  bmp::BmpCollector collector;
  telemetry::DemandMatrix demand;
  core::Controller controller(*rig.pop, controller_config());
  controller.set_rib_source(&collector.rib());
  controller.connect();
  service::AuditorConfig ac;
  ac.enabled = true;
  ac.override_local_pref = kOverrideLocalPref;
  service::EnforcementAuditor auditor(ac);

  const std::string journal_path = dir + "/replay.efj";
  JournalSink sink;  // outlives `journal`, its writer
  if (!sink.open(journal_path)) {
    res.mismatches = 1;
    res.first_mismatch = "cannot create the replay journal FIFO";
    return res;
  }
  std::unique_ptr<audit::JournalWriter> journal;
  int cur_cycle = -1;
  int cur_window = 0;
  const auto journal_cycles = [&] {
    journal = std::make_unique<audit::JournalWriter>(journal_path);
    controller.set_cycle_observer(
        [&](const core::Controller::CycleRecord& record) {
          const int cap =
              tracer.open("audit.capture", cur_cycle, cur_window);
          audit::CycleSnapshot snap =
              audit::capture_cycle(record, /*include_timing=*/true);
          tracer.close(cap);
          const int ser =
              tracer.open("audit.serialize", cur_cycle, cur_window);
          const std::vector<std::uint8_t> bytes = snap.serialize();
          tracer.close(ser);
          const int wr =
              tracer.open("audit.journal_write", cur_cycle, cur_window);
          journal->append(bytes);
          journal->flush();
          tracer.close(wr);
        });
  };
  if (journal_on(o.workload)) journal_cycles();
  const std::string recovery = dir + "/replay.efc";
  const auto persist = [&](net::SimTime when, int parent, int win) {
    const int span = tracer.open("audit.recovery_persist", parent, win);
    audit::RecoverySnapshot snap;
    snap.when = when;
    for (const auto& [p, ov] : controller.active_overrides()) {
      snap.overrides.push_back(ov);
    }
    {
      audit::JournalWriter writer(recovery + ".tmp");
      writer.append(snap.serialize());
      writer.flush();
    }
    std::rename((recovery + ".tmp").c_str(), recovery.c_str());
    tracer.close(span);
  };
  const auto feed_demand =
      [&](const std::vector<std::vector<std::uint8_t>>& datagrams, int parent,
          int win) {
        std::vector<telemetry::wire::DemandRate> rates;
        for (const auto& d : datagrams) {
          for (const auto& rec : telemetry::wire::decode_datagram(d).records) {
            if (const auto* r =
                    std::get_if<telemetry::wire::DemandRate>(&rec)) {
              rates.push_back(*r);
            }
          }
        }
        const int span = tracer.open("telemetry.demand_set", parent, win);
        for (const auto& r : rates) demand.set(r.prefix, r.rate);
        tracer.close(span);
      };
  const auto check = [&](std::size_t index) {
    if (index >= digests.size()) return;
    std::vector<core::Override> mine;
    for (const auto& [p, ov] : controller.active_overrides()) mine.push_back(ov);
    if (mine != digests[index].overrides) {
      if (res.mismatches++ == 0) {
        res.first_mismatch = "window " + std::to_string(index) +
                             ": efd decided " +
                             std::to_string(digests[index].overrides.size()) +
                             " overrides, replica " +
                             std::to_string(mine.size());
      }
    }
  };

  // Every frame of the full-table dump is decoded once on its own, so
  // bmp.decode_frame has frames to time on every workload.
  const int load = tracer.open("replay.load", -1, 0);
  const auto decode_frames = [&](std::span<const std::uint8_t> bytes,
                                 int parent, int win) {
    const int span = tracer.open("bmp.decode_frame", parent, win);
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const bmp::FrameDecode frame =
          bmp::decode_frame(bytes.subspan(pos, bytes.size() - pos));
      if (frame.status != bmp::FrameDecode::Status::kOk) break;
      pos += frame.consumed;
      ++res.frames;
    }
    tracer.close(span);
  };
  decode_frames(rig.inputs.full_table, load, 0);
  tracer.close(load);

  // Window 0: the full table and every prefix's demand (untimed set-up).
  const bool tracing = tracer.enabled;
  tracer.enabled = false;
  collector.receive(1, rig.inputs.full_table);
  feed_demand(rig.inputs.window0, -1, 0);
  const net::SimTime t0 = feed_time(0);
  controller.run_cycle(demand, t0);
  if (rig.setup_transitions > 0) controller.invalidate_ledger();
  std::map<net::Prefix, core::Override> intent = controller.active_overrides();
  persist(t0, -1, 0);
  check(0);
  tracer.enabled = tracing;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t j = 1; j <= live_windows; ++j) {
    if (Clock::now() >= deadline) break;
    const Window& w = rig.inputs.windows[window_slot(j)];
    const int win = static_cast<int>(j);
    const net::SimTime now = feed_time(j);
    cur_window = win;
    const int root = tracer.open("replay.window", -1, win);

    if (!w.bmp.empty()) {
      decode_frames(w.bmp, root, win);
      const int rcv = tracer.open("bmp.collector_receive", root, win);
      collector.receive(1, w.bmp);
      tracer.close(rcv);
    }
    feed_demand(w.demand, root, win);

    // The audit judges the previous cycle's intent against a converged
    // router read-back, as efd does at the head of each guarded cycle.
    const std::vector<bgp::Route> observed = routes_for(intent);
    const int aud = tracer.open("service.audit_diff", root, win);
    const service::AuditReport report = auditor.audit(intent, observed, now);
    tracer.close(aud);
    if (report.divergent()) {
      ++res.mismatches;
      if (res.first_mismatch.empty()) {
        res.first_mismatch = "window " + std::to_string(j) +
                             ": replica audit found divergence";
      }
    }

    cur_cycle = tracer.open("core.run_cycle", root, win);
    const core::CycleStats stats = controller.run_cycle(demand, now);
    tracer.close(cur_cycle);
    cur_cycle = -1;
    res.alloc_ms.push_back(
        std::chrono::duration<double, std::milli>(stats.allocation_wall)
            .count());
    res.hit_rate.push_back(stats.ranking_cache_hit_rate);

    // The cycle's enforcement delta, one UPDATE per prefix as the
    // announcer's speaker sends it.
    const auto& now_set = controller.active_overrides();
    std::vector<bgp::Message> delta;
    for (const auto& [prefix, ov] : intent) {
      if (!now_set.contains(prefix)) {
        bgp::UpdateMessage u;
        u.withdrawn.push_back(prefix);
        delta.emplace_back(std::move(u));
      }
    }
    for (const auto& [prefix, ov] : now_set) {
      auto it = intent.find(prefix);
      if (it != intent.end() && it->second.next_hop == ov.next_hop &&
          it->second.as_path == ov.as_path &&
          it->second.target_type == ov.target_type) {
        continue;
      }
      bgp::UpdateMessage u;
      u.nlri.push_back(prefix);
      u.attrs.next_hop = ov.next_hop;
      u.attrs.as_path = ov.as_path;
      u.attrs.local_pref = bgp::LocalPref(kOverrideLocalPref);
      u.attrs.has_local_pref = true;
      u.attrs.communities = {core::kOverrideCommunity,
                             bgp::peer_type_community(ov.target_type)};
      delta.emplace_back(std::move(u));
    }
    const int enc = tracer.open("bgp.update_encode", root, win);
    for (const bgp::Message& m : delta) {
      res.update_bytes += bgp::wire::encode(m).size();
    }
    tracer.close(enc);

    intent = now_set;
    persist(now, root, win);
    tracer.close(root);
    check(j);
    ++res.windows;
  }

  if (!journal) {
    // This workload journals nothing. One more cycle, journaled, on its
    // final state times the audit.* layers here too; it sits outside
    // every replay.window.
    journal_cycles();
    cur_window = static_cast<int>(res.windows) + 1;
    cur_cycle = tracer.open("replay.journal_probe", -1, cur_window);
    controller.run_cycle(demand, feed_time(res.windows + 1));
    tracer.close(cur_cycle);
    cur_cycle = -1;
  }
  return res;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A non-finite value fails the run (see main) and is written as 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  if (path.empty()) return 0;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  set_log_level(LogLevel::kError);
  std::cout << std::unitbuf;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "host: nproc=" << nproc << " build_type=" << EF_BENCH_BUILD_TYPE
            << " compiler=" << EF_BENCH_COMPILER << "\n";
  std::cout << "workload=" << o.workload_name << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " prefixes=" << o.prefixes << "x3 setups=" << (o.trace ? 1 : kSetups)
            << " journal=" << (journal_on(o.workload) ? "on" : "off")
            << " workdir=disk\n";

  int exit_code = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string failure;
  std::vector<Metric> metrics;
  const auto fail = [&](const std::string& why) {
    correct = false;
    if (failure.empty()) failure = why;
  };

  // The measured rig's set-up is timed from process start; the other
  // set-ups are timed after the measured windows (see the end of main).
  const std::string rig_dir = o.workdir + "/setup0";
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  {
    std::string why;
    rig = set_up(o, rig_dir, why);
    if (rig) {
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - kProcessStart).count());
    } else {
      fail("set-up 0: " + why);
    }
  }
  // The whole run takes about --seconds: what set-up 0 left over, less
  // the further set-ups an untraced run still has to do (each about as
  // long as set-up 0), is the live phase; a traced run gives the live
  // phase and the replay half each.
  double measure_s = o.seconds;
  if (!setup_s.empty()) {
    measure_s -= (o.trace ? 1 : kSetups) * setup_s.front();
    measure_s = std::max(measure_s, o.seconds / 4);
  }

  Tracer tracer;
  tracer.enabled = o.trace;
  LiveResult live;
  std::vector<service::EfdService::CycleDigest> digests;
  if (rig) {
    std::cout << "inputs: bmp_fnv1a=" << hex(rig->inputs.bmp_digest)
              << " efs1_fnv1a=" << hex(rig->inputs.efs1_digest)
              << " full_table_routes=" << rig->inputs.full_table_routes
              << " interfaces=" << rig->inputs.interfaces
              << " hot_interfaces=" << rig->inputs.hot_interfaces
              << " hot_prefixes=" << rig->inputs.hot_prefixes << "\n";
    const double live_seconds = o.trace ? measure_s / 2 : measure_s;
    live = run_live(*rig, o, live_seconds, tracer);
    attempted = live.attempted;
    failed = live.failed;
    if (live.failed > 0) fail(live.failure);

    // One digest copy for the whole run, after the last window.
    digests = rig->efd->digests();
    if (live.failed == 0 && digests.size() != live.windows.size() + 1) {
      fail("efd ran " + std::to_string(digests.size()) + " cycles for " +
           std::to_string(live.windows.size() + 1) + " windows");
    }
    for (const auto& d : digests) {
      if (d.action != audit::FailsafeAction::kRun) {
        fail("a cycle did not run (failsafe action)");
        break;
      }
    }
    if (live.failed == 0 && !digests.empty()) {
      std::string why;
      if (!override_set_matches_prd(digests.back().overrides,
                                    rig->prd->routes(), why)) {
        fail("final prd state: " + why);
        ++failed;
      }
    }
  }

  // Decision digest over a fixed prefix of windows (every run reaches
  // it), plus one over the whole run.
  constexpr std::size_t kDigestWindows = 32;
  Fnv decisions_fixed, decisions_all;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (i <= kDigestWindows) hash_overrides(decisions_fixed, digests[i].overrides);
    hash_overrides(decisions_all, digests[i].overrides);
  }
  std::cout << "decisions: first" << kDigestWindows << "_fnv1a="
            << (digests.size() > kDigestWindows ? hex(decisions_fixed.hash)
                                                : std::string("short-run"))
            << " all_fnv1a=" << hex(decisions_all.hash)
            << " cycles=" << digests.size() << "\n";

  // Per-window series.
  std::vector<double> cycle, cycle_traced, cycle_untraced, churn, feed,
      decide, drain;
  for (const LiveWindow& w : live.windows) {
    cycle.push_back(w.cycle_ms);
    (w.traced ? cycle_traced : cycle_untraced).push_back(w.cycle_ms);
    if (w.bmp) churn.push_back(w.churn_ms);
    feed.push_back(w.feed_ms);
    decide.push_back(w.decide_ms);
    drain.push_back(w.drain_ms);
  }
  const double windows = static_cast<double>(std::max<std::size_t>(1, live.windows.size()));

  std::uint64_t journal_bytes = 0, recovery_bytes = 0;
  ReplayResult replay;
  std::vector<double> readback_ms, readback_routes;
  if (rig) {
    // Read-back calls after set-up belong to measured windows (the first
    // cycle's audit has nothing to judge yet but still reads back).
    {
      std::lock_guard<std::mutex> lock(rig->readback.mu);
      for (std::size_t i = 1; i < rig->readback.calls.size(); ++i) {
        readback_ms.push_back(ms_since(rig->readback.calls[i].first,
                                       rig->readback.calls[i].second));
        readback_routes.push_back(
            static_cast<double>(rig->readback.routes[i]));
      }
      // Cycle i's read-back ran on efd's loop inside window i's decide.
      for (const auto& [win, decide] : live.decide_span) {
        const auto i = static_cast<std::size_t>(win);
        if (i < rig->readback.calls.size()) {
          tracer.add("live.audit_readback", rig->readback.calls[i].first,
                     rig->readback.calls[i].second, decide, win);
        }
      }
    }
    rig->efd->stop();
    journal_bytes = rig->journal.finish();
    recovery_bytes = file_bytes(rig->recovery_path);
    if (o.trace && correct) {
      replay = run_replay(*rig, o, rig_dir, digests, live.windows.size(),
                          measure_s / 2, tracer);
      if (replay.mismatches > 0) {
        fail("replica: " + replay.first_mismatch);
        failed += replay.mismatches;
      }
    }
    rig->prd->stop();
  }

  if (!o.trace) {
    metrics.push_back({"cycle_ms_p50", percentile(cycle, 0.5), "ms"});
    metrics.push_back({"cycle_ms_p90", percentile(cycle, 0.9), "ms"});
    metrics.push_back({"cpu_ms_per_cycle", live.cpu_ms / windows, "ms"});
    metrics.push_back({"peak_rss_mb", live.peak_rss_mb, "MB"});
  } else {
    const auto d_updates = static_cast<double>(live.after.bgp_updates_sent -
                                               live.before.bgp_updates_sent);
    const auto d_withdraws = static_cast<double>(
        live.after.bgp_withdraw_msgs - live.before.bgp_withdraw_msgs);
    std::vector<double> alloc_ms, dirty, overrides;
    double incremental = 0, fallbacks = 0, surge_added_min = 0;
    bool any_surge = false;
    for (std::size_t i = 1; i < digests.size(); ++i) {
      const auto& d = digests[i];
      alloc_ms.push_back(
          std::chrono::duration<double, std::milli>(d.allocation_wall).count());
      dirty.push_back(static_cast<double>(d.dirty_prefixes));
      overrides.push_back(static_cast<double>(d.overrides.size()));
      incremental += d.incremental_cycle ? 1 : 0;
      fallbacks += static_cast<double>(d.full_fallbacks);
      if (rig && rig->inputs.windows[window_slot(i)].surge_rise) {
        const double added = static_cast<double>(d.overrides.size()) -
                             static_cast<double>(digests[i - 1].overrides.size());
        surge_added_min = any_surge ? std::min(surge_added_min, added) : added;
        any_surge = true;
      }
    }
    const double cycles = static_cast<double>(std::max<std::size_t>(1, alloc_ms.size()));
    const double replayed = static_cast<double>(std::max<std::size_t>(1, replay.windows));
    const auto per_window = [&](const char* name) {
      return tracer.self_ms(name) / replayed;
    };
    // Journal layers: per journaled cycle, which is every replayed window
    // on steady and the one journaled probe cycle elsewhere.
    const auto per_call = [&](const char* name) {
      return tracer.self_ms(name) /
             static_cast<double>(std::max<std::size_t>(1, tracer.count(name)));
    };
    // Audit layers' share of the replayed windows (the probe is outside).
    double audit_ms =
        tracer.self_ms("audit.recovery_persist") + tracer.self_ms("service.audit_diff");
    if (journal_on(o.workload)) {
      for (const char* n : {"audit.capture", "audit.serialize", "audit.journal_write"}) {
        audit_ms += tracer.self_ms(n);
      }
    }
    const double replay_total = tracer.total_ms("replay.window");
    const double alloc_replay = mean(replay.alloc_ms);

    metrics.push_back({"bmp.load_routes_per_s", rig ? rig->load_routes_per_s : 0, "1/s"});
    metrics.push_back({"bmp.churn_apply_ms_p50", percentile(churn, 0.5), "ms"});
    metrics.push_back({"telemetry.demand_feed_ms_p50", percentile(feed, 0.5), "ms"});
    metrics.push_back({"service.decide_ms_p50", percentile(decide, 0.5), "ms"});
    metrics.push_back({"service.enforce_drain_ms_p50", percentile(drain, 0.5), "ms"});
    metrics.push_back({"service.audit_readback_ms_p50", percentile(readback_ms, 0.5), "ms"});
    metrics.push_back({"service.audit_readback_routes", mean(readback_routes), "count"});
    metrics.push_back({"core.alloc_wall_ms_p50", percentile(alloc_ms, 0.5), "ms"});
    metrics.push_back({"core.incremental_share", incremental / cycles, "ratio"});
    metrics.push_back({"core.full_fallbacks", fallbacks, "count"});
    metrics.push_back({"core.dirty_prefixes_mean", mean(dirty), "count"});
    metrics.push_back({"core.overrides_mean", mean(overrides), "count"});
    metrics.push_back({"core.surge_added_min", surge_added_min, "count"});
    metrics.push_back({"bgp.updates_per_cycle", d_updates / windows, "count"});
    metrics.push_back({"bgp.withdraws_per_cycle", d_withdraws / windows, "count"});
    metrics.push_back({"audit.journal_bytes_per_cycle",
                       static_cast<double>(journal_bytes) /
                           static_cast<double>(std::max<std::size_t>(1, digests.size())),
                       "bytes"});
    metrics.push_back({"audit.recovery_bytes", static_cast<double>(recovery_bytes), "bytes"});
    metrics.push_back({"live.windows", static_cast<double>(live.windows.size()), "count"});
    metrics.push_back({"trace.overhead_ms",
                       percentile(cycle_traced, 0.5) - percentile(cycle_untraced, 0.5),
                       "ms"});
    metrics.push_back({"bmp.decode_frame_us",
                       replay.frames ? tracer.self_ms("bmp.decode_frame") * 1e3 /
                                           static_cast<double>(replay.frames)
                                     : 0.0,
                       "us"});
    metrics.push_back({"bmp.collector_receive_ms", per_window("bmp.collector_receive"), "ms"});
    metrics.push_back({"telemetry.demand_set_ms", per_window("telemetry.demand_set"), "ms"});
    metrics.push_back({"core.run_cycle_ms", tracer.total_ms("core.run_cycle") / replayed, "ms"});
    metrics.push_back({"core.allocate_ms", alloc_replay, "ms"});
    metrics.push_back({"core.controller_rest_ms", per_window("core.run_cycle") - alloc_replay, "ms"});
    metrics.push_back({"core.ranking_cache_hit_rate", mean(replay.hit_rate), "ratio"});
    metrics.push_back({"audit.capture_ms", per_call("audit.capture"), "ms"});
    metrics.push_back({"audit.serialize_ms", per_call("audit.serialize"), "ms"});
    metrics.push_back({"audit.journal_write_ms", per_call("audit.journal_write"), "ms"});
    metrics.push_back({"audit.recovery_persist_ms", per_window("audit.recovery_persist"), "ms"});
    metrics.push_back({"service.audit_diff_ms", per_window("service.audit_diff"), "ms"});
    metrics.push_back({"bgp.update_encode_ms", per_window("bgp.update_encode"), "ms"});
    metrics.push_back({"trace.audit_share", replay_total > 0 ? audit_ms / replay_total : 0.0,
                       "ratio"});
    metrics.push_back({"replay.windows", static_cast<double>(replay.windows), "count"});
    tracer.write(o.trace_out);
  }

  // The remaining set-ups, each timed alone and torn down again. They run
  // after the measured windows so that their torn-down daemons cannot
  // change what the measured rig's memory or cycles look like.
  rig.reset();
  for (int s = 1; !o.trace && correct && s < kSetups; ++s) {
    const auto begin = Clock::now();
    const std::string dir = o.workdir + "/setup" + std::to_string(s);
    std::string why;
    std::unique_ptr<Rig> extra = set_up(o, dir, why);
    if (!extra) {
      fail("set-up " + std::to_string(s) + ": " + why);
      break;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - begin).count());
    extra.reset();
    fs::remove_all(dir);
  }
  if (!o.trace) metrics.push_back({"setup_s", percentile(setup_s, 0.5), "s"});
  std::error_code ec;
  fs::remove_all(o.workdir, ec);

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) fail("metric " + m.name + " is not finite");
  }
  if (!correct) {
    exit_code = 1;
    if (attempted == 0) attempted = 1;
    if (failed == 0) failed = 1;
  }
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted));
  // Per-layer only: it is 0 on every passing run, and an end-to-end
  // metric's bound is a share of its median.
  if (o.trace) metrics.push_back({"failed_frac", failed_frac, "ratio"});
  std::cout << "windows: measured=" << live.windows.size()
            << " attempted=" << attempted << " failed=" << failed
            << " cycle_ms samples=" << cycle.size()
            << (cycle.size() >= 100 ? "" : " (under 100: p90 has <10 above)")
            << "\n";
  std::cout << "setup_s samples:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\n";
  std::cout << "files: journal_bytes=" << journal_bytes
            << " recovery_bytes=" << recovery_bytes << " (workdir removed)\n";
  if (o.trace) {
    std::cout << "replay: windows=" << replay.windows
              << " bmp_frames=" << replay.frames
              << " update_bytes=" << replay.update_bytes
              << " mismatches=" << replay.mismatches << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (!o.trace) std::cout << "metric failed_frac = " << failed_frac << " ratio\n";
  if (!correct) std::cout << "FAILED: " << failure << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return exit_code;
}
