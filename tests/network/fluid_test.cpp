#include "cm5/net/fluid_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "cm5/net/maxmin.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/time.hpp"

namespace cm5::net {
namespace {

using util::from_us;
using util::SimTime;

TEST(FluidTest, SingleFlowFullRate) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // 20000 wire bytes at 20 MB/s = 1 ms (nodes 0->1, same cluster).
  net.start_flow(0, 0, 1, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
  const auto done = net.advance_to(*t);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FluidTest, CrossRootFlowLimitedByThinning) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // A single cross-root flow is limited by its own node link (20 MB/s),
  // not the aggregate thinning: subtree uplinks are 40/80 MB/s.
  net.start_flow(0, 0, 31, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
}

TEST(FluidTest, SixteenCrossRootFlowsGetFiveMBps) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // All 16 nodes of the left 16-subtree send across the root: the level-2
  // uplink (80 MB/s) is the bottleneck -> 5 MB/s per flow.
  for (NodeId n = 0; n < 16; ++n) {
    net.start_flow(0, n, static_cast<NodeId>(n + 16), 5000.0);
  }
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));  // 5000 B at 5 MB/s
  const auto done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 16u);
}

TEST(FluidTest, WithinClusterPairsKeepFullBandwidth) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Disjoint in-cluster pairs do not contend.
  net.start_flow(0, 0, 1, 20000.0);
  net.start_flow(0, 2, 3, 20000.0);
  net.start_flow(0, 4, 5, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
}

TEST(FluidTest, LateFlowSlowsEarlierFlow) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Flow A: 0 -> 1 (20 MB/s alone), 40000 bytes -> would finish at 2 ms.
  net.start_flow(0, 0, 1, 40000.0);
  // At 1 ms, flow B starts 2 -> 1, sharing node 1's eject link.
  // A has 20000 bytes left; both now get 10 MB/s.
  const auto completions = net.advance_to(util::from_ms(1));
  EXPECT_TRUE(completions.empty());
  net.start_flow(util::from_ms(1), 2, 1, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  // A finishes at 1 ms + 20000 B / 10 MB/s = 3 ms. B finishes at the same
  // time (same remaining bytes, same rate).
  EXPECT_EQ(*t, util::from_ms(3));
  const auto done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 2u);
}

TEST(FluidTest, EarlyFinisherFreesBandwidth) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Two flows into node 1 share its eject link at 10 MB/s each.
  net.start_flow(0, 0, 1, 10000.0);  // done after 1 ms at 10 MB/s
  net.start_flow(0, 2, 1, 30000.0);
  auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
  auto done = net.advance_to(*t);
  ASSERT_EQ(done.size(), 1u);
  // Remaining flow: 20000 bytes left, now at 20 MB/s -> 1 more ms.
  t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 1u);
}

TEST(FluidTest, ZeroByteFlowCompletesImmediately) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(from_us(5), 0, 1, 0.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, from_us(5));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
}

TEST(FluidTest, IdleNetworkHasNoEvents) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  EXPECT_FALSE(net.next_event().has_value());
}

TEST(FluidTest, TimeMustNotGoBackwards) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(from_us(10), 0, 1, 100.0);
  EXPECT_THROW(net.start_flow(from_us(5), 2, 3, 100.0), util::CheckError);
  EXPECT_THROW(net.advance_to(from_us(5)), util::CheckError);
}

TEST(FluidTest, SelfFlowRejected) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  EXPECT_THROW(net.start_flow(0, 3, 3, 100.0), util::CheckError);
}

TEST(FluidTest, StatsAccumulateByLevel) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(0, 0, 1, 1000.0);    // node links only
  net.start_flow(0, 0, 31, 1000.0);   // crosses levels 1 and 2
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  net.advance_to(*t);
  while (net.active_flows() > 0) {
    const auto e = net.next_event();
    ASSERT_TRUE(e.has_value());
    net.advance_to(*e);
  }
  const NetworkStats& s = net.stats();
  EXPECT_EQ(s.flows_started, 2);
  EXPECT_EQ(s.flows_completed, 2);
  // Level 0: each flow crosses inject+eject = 2000 B per flow.
  EXPECT_DOUBLE_EQ(s.bytes_by_level[0], 4000.0);
  // Level 1: only the cross-root flow, up+down = 2000 B.
  EXPECT_DOUBLE_EQ(s.bytes_by_level[1], 2000.0);
  EXPECT_DOUBLE_EQ(s.bytes_by_level[2], 2000.0);
}

TEST(FluidTest, StalledLinkAccruesNoBusyTime) {
  // Regression: a link driven to capacity scale 0 used to divide by its
  // zero capacity in the busy-time integral, polluting link_busy_seconds
  // with NaN/inf. A stalled link carries no fluid, so it must accrue
  // exactly nothing while stalled — and the flow must resume cleanly when
  // the link is restored.
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  const LinkId inject = topo.inject_link(0);
  net.start_flow(0, 0, 1, 20000.0);  // 1 ms at 20 MB/s when healthy
  // Stall the flow's inject link at t=0; let 1 ms of stalled time pass.
  net.set_link_capacity_scale(0, inject, 0.0);
  EXPECT_FALSE(net.next_event().has_value());  // blocked, no completion
  EXPECT_TRUE(net.advance_to(util::from_ms(1)).empty());
  const double busy_stalled =
      net.stats().link_busy_seconds[static_cast<std::size_t>(inject)];
  EXPECT_EQ(busy_stalled, 0.0);  // also catches NaN
  // Restore: the flow finishes 1 ms later, and the busy integral resumes.
  net.set_link_capacity_scale(util::from_ms(1), inject, 1.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
  const double busy =
      net.stats().link_busy_seconds[static_cast<std::size_t>(inject)];
  EXPECT_NEAR(busy, 1e-3, 1e-12);  // 1 ms at full load, none while stalled
}

TEST(FluidTest, DegradedLinkSlowsAndRestores) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(0, 0, 1, 20000.0);
  // Halve the inject link: 10 MB/s -> projected completion moves to 2 ms.
  net.set_link_capacity_scale(0, topo.inject_link(0), 0.5);
  auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  // Restore at 1 ms (10000 bytes left): heap entry must be re-projected
  // to 1 ms + 10000 B / 20 MB/s = 1.5 ms, not the stale 2 ms.
  net.advance_to(util::from_ms(1));
  net.set_link_capacity_scale(util::from_ms(1), topo.inject_link(0), 1.0);
  t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_us(1500));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
}

/// Link capacities of `topo` in rate units, each scaled by `scale[link]`.
std::vector<RateUnits> scaled_capacities(const FatTreeTopology& topo,
                                         const std::vector<double>& scale) {
  std::vector<RateUnits> caps;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    caps.push_back(capacity_units(topo.link(l).capacity,
                                  scale[static_cast<std::size_t>(l)]));
  }
  return caps;
}

/// Rates, in rate units, that the reference solve_max_min gives flows
/// between the (src, dst) pairs `ends` on `topo`, with each link's
/// capacity scaled by `scale[link]`.
std::vector<RateUnits> reference_units(
    const FatTreeTopology& topo,
    const std::vector<std::pair<NodeId, NodeId>>& ends,
    const std::vector<double>& scale) {
  std::vector<std::vector<LinkId>> routes;
  for (const auto& [src, dst] : ends) {
    const auto r = topo.route(src, dst);
    routes.emplace_back(r.begin(), r.end());
  }
  std::vector<FlowRoute> flows;
  for (const auto& r : routes) flows.push_back(FlowRoute{r});
  return solve_max_min(flows, scaled_capacities(topo, scale));
}

/// reference_units in bytes/s.
std::vector<double> reference_rates(
    const FatTreeTopology& topo,
    const std::vector<std::pair<NodeId, NodeId>>& ends,
    const std::vector<double>& scale) {
  std::vector<double> rates;
  for (const RateUnits u : reference_units(topo, ends, scale)) {
    rates.push_back(rate_from_units(u));
  }
  return rates;
}

TEST(FluidTest, RatesMatchReferenceSolverExactly) {
  // After every operation of a contended scenario with mid-run faults,
  // each live flow's rate equals, bit for bit, what the reference
  // solve_max_min gives over the same routes and scaled capacities.
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  std::vector<double> scale(static_cast<std::size_t>(topo.num_links()), 1.0);
  std::vector<std::pair<FlowId, std::pair<NodeId, NodeId>>> live;
  const auto expect_reference = [&](const char* after) {
    std::vector<std::pair<NodeId, NodeId>> ends;
    for (const auto& [id, e] : live) ends.push_back(e);
    const std::vector<double> want = reference_rates(topo, ends, scale);
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(net.flow_rate(live[i].first), want[i])
          << "after " << after << ", flow " << live[i].first;
    }
  };
  const auto degrade = [&](SimTime t, LinkId l, double s) {
    net.set_link_capacity_scale(t, l, s);
    scale[static_cast<std::size_t>(l)] = s;
  };

  for (NodeId n = 0; n < 16; ++n) {
    const auto dst = static_cast<NodeId>(n % 3 == 0 ? 17 : n + 16);
    live.push_back({net.start_flow(0, n, dst, 1000.0 * (n + 1)), {n, dst}});
  }
  expect_reference("start");
  degrade(from_us(100), topo.up_link(1, 0), 0.25);
  expect_reference("degrade");
  degrade(from_us(150), topo.eject_link(17), 1.0 / 3.0);
  expect_reference("second degrade");
  while (const auto t = net.next_event()) {
    const std::vector<FlowId> done = net.advance_to(*t);
    std::erase_if(live, [&done](const auto& f) {
      return std::find(done.begin(), done.end(), f.first) != done.end();
    });
    expect_reference("completion");
  }
  EXPECT_TRUE(live.empty());
}

TEST(FluidTest, PrivateLinkCapsMatchReference) {
  // A link that carries a single flow enters a solve only as that flow's
  // private cap. After every operation below, which moves links between
  // private and shared and degrades or stalls private links, each live
  // flow's rate must equal the reference solve bit for bit.
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  std::vector<double> scale(static_cast<std::size_t>(topo.num_links()), 1.0);
  std::vector<std::pair<FlowId, std::pair<NodeId, NodeId>>> live;
  const auto expect_reference = [&](const char* after) {
    std::vector<std::pair<NodeId, NodeId>> ends;
    for (const auto& [id, e] : live) ends.push_back(e);
    const std::vector<double> want = reference_rates(topo, ends, scale);
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(net.flow_rate(live[i].first), want[i])
          << "after " << after << ", flow " << live[i].first;
    }
  };
  const auto start = [&](SimTime t, NodeId src, NodeId dst, double bytes) {
    const FlowId id = net.start_flow(t, src, dst, bytes);
    live.push_back({id, {src, dst}});
    return id;
  };
  const auto degrade = [&](SimTime t, LinkId l, double s) {
    net.set_link_capacity_scale(t, l, s);
    scale[static_cast<std::size_t>(l)] = s;
  };
  const auto advance = [&](SimTime t) {
    const std::vector<FlowId> done = net.advance_to(t);
    std::erase_if(live, [&done](const auto& f) {
      return std::find(done.begin(), done.end(), f.first) != done.end();
    });
    return done;
  };

  // Every link of a flow inside one cluster carries only that flow.
  start(0, 8, 9, 1e6);
  expect_reference("a flow on private links only");
  const FlowId a = start(0, 0, 1, 40000.0);
  expect_reference("a second all-private flow");
  // Node 1's eject link goes from private to shared.
  const FlowId b = start(from_us(100), 2, 1, 2000.0);
  expect_reference("eject link shared");
  // A's private inject link drops below its share of the eject link.
  degrade(from_us(150), topo.inject_link(0), 0.25);
  expect_reference("private inject degraded");
  // Stalling it leaves A at rate 0 and B alone on the eject link.
  degrade(from_us(200), topo.inject_link(0), 0.0);
  expect_reference("private inject stalled");
  EXPECT_EQ(net.flow_rate(a), 0.0);
  // B's retirement leaves the shared eject link with A alone: private
  // again.
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(advance(*t), std::vector<FlowId>{b});
  expect_reference("shared link back to one flow");
  degrade(*t, topo.inject_link(0), 1.0);
  expect_reference("private inject restored");
  // A new flow shares node 8's inject link with the all-private flow.
  start(*t, 8, 3, 5000.0);
  expect_reference("inject link shared");
  while (const auto next = net.next_event()) {
    advance(*next);
    expect_reference("completion");
  }
  EXPECT_TRUE(live.empty());
}

/// One operation of a churn script at time `t`: a rescale of `link` to
/// `scale` if link >= 0, else the start of a flow src -> dst.
struct ChurnOp {
  SimTime t;
  NodeId src;
  NodeId dst;
  double bytes;
  LinkId link;
  double scale;
};

/// A deterministic churn on `topo`: bursts of same-instant flow starts
/// between random pauses, and rescales (stalls included) of random
/// links, all restored at the end so every flow can finish.
std::vector<ChurnOp> churn_script(const FatTreeTopology& topo,
                                  std::uint64_t seed, int ops) {
  std::uint64_t state = seed;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  const auto nodes = static_cast<std::uint64_t>(topo.num_nodes());
  const auto links = static_cast<std::uint64_t>(topo.num_links());
  const double scales[] = {0.0, 0.25, 1.0 / 3.0, 0.5, 1.0};
  std::vector<ChurnOp> script;
  std::vector<LinkId> touched;
  SimTime t = 0;
  for (int i = 0; i < ops; ++i) {
    if (next(2) == 0) t += from_us(static_cast<std::int64_t>(next(40)));
    if (next(8) == 0) {
      const auto link = static_cast<LinkId>(next(links));
      script.push_back({t, -1, -1, 0.0, link, scales[next(5)]});
      touched.push_back(link);
      continue;
    }
    const auto src = static_cast<NodeId>(next(nodes));
    const auto dst =
        static_cast<NodeId>((static_cast<std::uint64_t>(src) + 1 +
                             next(nodes - 1)) % nodes);
    script.push_back(
        {t, src, dst, 100.0 * static_cast<double>(1 + next(40)), -1, 1.0});
  }
  for (const LinkId link : touched) script.push_back({t, -1, -1, 0.0, link, 1.0});
  return script;
}

/// A live flow of a churn run: its id and its (src, dst).
using ChurnLive = std::vector<std::pair<FlowId, std::pair<NodeId, NodeId>>>;

/// Runs `script` on a fresh network, harvesting every completion due by
/// an operation's time before applying it when time moves, then drains
/// the network.
/// With `peek_every_op`, next_event() is also called after every
/// operation, as the kernel does between same-instant starts.
/// `interval` sees each stretch of time the network moves across, with
/// the flows live and the link scales in force over it. Returns every
/// completion as (time, id).
std::vector<std::pair<SimTime, FlowId>> run_churn(
    FluidNetwork& net, const std::vector<ChurnOp>& script, bool peek_every_op,
    const std::function<void(SimTime, SimTime, const ChurnLive&,
                             const std::vector<double>&)>& interval =
        nullptr) {
  std::vector<double> scale(
      static_cast<std::size_t>(net.topology().num_links()), 1.0);
  ChurnLive live;
  std::vector<std::pair<SimTime, FlowId>> completions;
  SimTime now = 0;
  const auto advance = [&](SimTime t) {
    if (interval && t > now) interval(now, t, live, scale);
    now = t;
    for (const FlowId id : net.advance_to(t)) {
      completions.push_back({t, id});
      std::erase_if(live, [id](const auto& f) { return f.first == id; });
    }
  };
  for (const ChurnOp& op : script) {
    // Same-instant operations need no harvest in between: nothing can
    // finish before the instant they start at.
    for (auto t = op.t > now ? net.next_event() : std::nullopt;
         t && *t <= op.t; t = net.next_event()) {
      advance(*t);
    }
    if (interval && op.t > now) interval(now, op.t, live, scale);
    now = op.t;
    if (op.link >= 0) {
      net.set_link_capacity_scale(op.t, op.link, op.scale);
      scale[static_cast<std::size_t>(op.link)] = op.scale;
    } else {
      live.push_back(
          {net.start_flow(op.t, op.src, op.dst, op.bytes), {op.src, op.dst}});
    }
    if (peek_every_op) net.next_event();
  }
  while (const auto t = net.next_event()) advance(*t);
  EXPECT_TRUE(live.empty());
  return completions;
}

TEST(FluidTest, NextEventPeeksArePure) {
  // next_event() reads the completion heap without reordering it, so
  // peeking after every operation, which also splits same-instant starts
  // into separate solves, must not move any completion.
  const FatTreeTopology topo(FatTreeConfig::cm5(64));
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const std::vector<ChurnOp> script = churn_script(topo, seed, 600);
    FluidNetwork peeking(topo);
    FluidNetwork quiet(topo);
    const auto peeked = run_churn(peeking, script, true);
    const auto plain = run_churn(quiet, script, false);
    EXPECT_EQ(peeked, plain) << "seed " << seed;
    EXPECT_GT(peeking.stats().rate_solves, quiet.stats().rate_solves);
    EXPECT_GT(plain.size(), 500u);
  }
}

TEST(FluidTest, LinkLoadsStayExactUnderChurn) {
  // Link loads move by each rate change rather than being rebuilt, so
  // check them through their integral: every link's busy time must match
  // the one the reference rates give over each stretch of the run.
  const FatTreeTopology topo(FatTreeConfig::cm5(64));
  const auto num_links = static_cast<std::size_t>(topo.num_links());
  for (const std::uint64_t seed : {4ULL, 5ULL}) {
    std::vector<double> want(num_links, 0.0);
    FluidNetwork net(topo);
    run_churn(net, churn_script(topo, seed, 600), true,
              [&](SimTime from, SimTime to, const ChurnLive& live,
                  const std::vector<double>& scale) {
                std::vector<std::pair<NodeId, NodeId>> ends;
                for (const auto& [id, e] : live) ends.push_back(e);
                const std::vector<RateUnits> rates =
                    reference_units(topo, ends, scale);
                std::vector<RateUnits> load(num_links, 0);
                for (std::size_t i = 0; i < ends.size(); ++i) {
                  for (const LinkId l :
                       topo.route(ends[i].first, ends[i].second)) {
                    load[static_cast<std::size_t>(l)] += rates[i];
                  }
                }
                const std::vector<RateUnits> caps =
                    scaled_capacities(topo, scale);
                const double dt = util::to_seconds(to - from);
                for (std::size_t l = 0; l < num_links; ++l) {
                  if (load[l] <= 0) continue;
                  want[l] += dt * std::min(1.0, static_cast<double>(load[l]) /
                                                    static_cast<double>(caps[l]));
                }
              });
    const std::vector<double>& got = net.stats().link_busy_seconds;
    int busy_links = 0;
    for (std::size_t l = 0; l < num_links; ++l) {
      EXPECT_NEAR(got[l], want[l], 1e-9 * want[l])
          << "seed " << seed << ", link " << l;
      if (want[l] > 0.0) ++busy_links;
    }
    EXPECT_GT(busy_links, 100);
  }
}

TEST(FluidTest, FlowRateReflectsSharing) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  const FlowId a = net.start_flow(0, 0, 1, 20000.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 20e6);
  const FlowId b = net.start_flow(0, 2, 1, 20000.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 10e6);  // shares node 1's eject link
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 10e6);
}

TEST(FluidTest, ManyFlowsConservation) {
  // Total bytes delivered equals total bytes injected on a busy network.
  FatTreeTopology topo(FatTreeConfig::cm5(64));
  FluidNetwork net(topo);
  double injected = 0.0;
  for (NodeId n = 0; n < 64; ++n) {
    const NodeId dst = static_cast<NodeId>((n + 17) % 64);
    const double bytes = 100.0 * (n + 1);
    net.start_flow(0, n, dst, bytes);
    injected += bytes;
  }
  std::size_t completed = 0;
  while (const auto t = net.next_event()) {
    completed += net.advance_to(*t).size();
  }
  EXPECT_EQ(completed, 64u);
  EXPECT_EQ(net.stats().flows_completed, 64);
  EXPECT_DOUBLE_EQ(net.stats().bytes_by_level[0], 2.0 * injected);
}


// --- disjoint union: link-disjoint flow sets solve independently -----------

/// One flow of a scenario: src -> dst, `bytes`, started at `start`.
struct FlowSpec {
  NodeId src;
  NodeId dst;
  double bytes;
  SimTime start;
};

using Degrades = std::vector<std::pair<LinkId, double>>;

/// Per flow: every (time, rate) at which its rate changed, and its
/// completion time.
struct FlowHistory {
  std::vector<std::pair<SimTime, double>> rates;
  SimTime finish = -1;
  bool operator==(const FlowHistory&) const = default;
  friend void PrintTo(const FlowHistory& h, std::ostream* os) {
    *os << "{finish " << h.finish << " ns, rates";
    for (const auto& [t, rate] : h.rates) {
      *os << " " << rate << " B/s from " << t << " ns;";
    }
    *os << "}";
  }
};

/// A live flow of a run: its id and its index in the scenario.
using LiveFlows = std::vector<std::pair<FlowId, std::size_t>>;

/// Runs `specs` (in start order) on a fresh 32-node network whose listed
/// links are degraded at time 0, recording each flow's rate after every
/// batch of starts or completions. `after_event` sees the network and
/// its live flows at each of those points.
std::vector<FlowHistory> run_flows(
    const std::vector<FlowSpec>& specs, const Degrades& degrades,
    const std::function<void(FluidNetwork&, const LiveFlows&)>& after_event =
        nullptr) {
  const FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  for (const auto& [link, scale] : degrades) {
    net.set_link_capacity_scale(0, link, scale);
  }
  std::vector<FlowHistory> out(specs.size());
  LiveFlows live;
  std::size_t next = 0;
  for (;;) {
    const std::optional<SimTime> done_at = net.next_event();
    SimTime t;
    if (next < specs.size() && (!done_at || specs[next].start <= *done_at)) {
      t = specs[next].start;
      for (; next < specs.size() && specs[next].start == t; ++next) {
        const FlowSpec& f = specs[next];
        live.push_back({net.start_flow(t, f.src, f.dst, f.bytes), next});
      }
    } else if (done_at) {
      t = *done_at;
      const std::vector<FlowId> done = net.advance_to(t);
      std::erase_if(live, [&](const auto& f) {
        if (std::find(done.begin(), done.end(), f.first) == done.end()) {
          return false;
        }
        out[f.second].finish = t;
        return true;
      });
    } else {
      break;
    }
    for (const auto& [id, i] : live) {
      const double rate = net.flow_rate(id);
      if (out[i].rates.empty() || out[i].rates.back().second != rate) {
        out[i].rates.push_back({t, rate});
      }
    }
    if (after_event) after_event(net, live);
  }
  return out;
}

TEST(FluidTest, DisjointSubtreesSolveIndependently) {
  // Two contended flow sets confined to the two 16-node subtrees of a
  // 32-node tree share no link; staggered starts and sizes give each set
  // many rate changes, and one link of each set is degraded. After every
  // event of the joint run, each live flow's rate must equal, bit for
  // bit, the reference solve over the live flows of its own set alone.
  const FatTreeTopology topo(FatTreeConfig::cm5(32));
  std::vector<FlowSpec> specs;
  for (NodeId n = 0; n < 16; ++n) {
    specs.push_back({n, static_cast<NodeId>((n + 5) % 16), 700.0 * (n + 1),
                     from_us(7 * (n % 4))});
    specs.push_back({static_cast<NodeId>(16 + n),
                     static_cast<NodeId>(16 + (n * 3 + 1) % 16),
                     1100.0 * (n % 5 + 1), from_us(11 * (n % 3))});
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const FlowSpec& x, const FlowSpec& y) {
                     return x.start < y.start;
                   });
  const Degrades degrades = {{topo.up_link(1, 4), 0.3},
                             {topo.eject_link(20), 1.0 / 3.0}};
  std::vector<double> scale(static_cast<std::size_t>(topo.num_links()), 1.0);
  for (const auto& [link, s] : degrades) {
    scale[static_cast<std::size_t>(link)] = s;
  }
  int checked = 0;
  run_flows(specs, degrades, [&](FluidNetwork& net, const LiveFlows& live) {
    for (const bool left : {true, false}) {
      std::vector<std::size_t> which;
      std::vector<FlowId> ids;
      std::vector<std::pair<NodeId, NodeId>> ends;
      for (const auto& [id, i] : live) {
        if ((specs[i].src < 16) == left) {
          which.push_back(i);
          ids.push_back(id);
          ends.push_back({specs[i].src, specs[i].dst});
        }
      }
      const std::vector<double> want = reference_rates(topo, ends, scale);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(net.flow_rate(ids[k]), want[k])
            << "flow " << which[k] << " (" << specs[which[k]].src << "->"
            << specs[which[k]].dst << ")";
        ++checked;
      }
    }
  });
  EXPECT_GT(checked, 200);
}

/// Runs sets `a` (in nodes 0-15) and `b` (in nodes 16-31), both in start
/// order, together and each alone, and requires every flow's rate
/// history and completion time to be identical.
void expect_disjoint_union(const std::vector<FlowSpec>& a,
                           const std::vector<FlowSpec>& b,
                           const Degrades& da, const Degrades& db) {
  std::vector<FlowSpec> both = a;
  both.insert(both.end(), b.begin(), b.end());
  std::stable_sort(both.begin(), both.end(),
                   [](const FlowSpec& x, const FlowSpec& y) {
                     return x.start < y.start;
                   });
  Degrades dboth = da;
  dboth.insert(dboth.end(), db.begin(), db.end());
  const std::vector<FlowHistory> together = run_flows(both, dboth);
  const std::vector<FlowHistory> alone_a = run_flows(a, da);
  const std::vector<FlowHistory> alone_b = run_flows(b, db);
  // stable_sort kept each set's own order, so walk `both` to pair flows.
  std::size_t ia = 0;
  std::size_t ib = 0;
  for (std::size_t i = 0; i < both.size(); ++i) {
    const bool in_a = both[i].src < 16;
    const FlowHistory& alone = in_a ? alone_a[ia++] : alone_b[ib++];
    EXPECT_GE(together[i].finish, 0) << "flow " << i << " never finished";
    EXPECT_EQ(together[i], alone)
        << "flow " << i << " (" << both[i].src << "->" << both[i].dst
        << ") differs between the union and its own set";
  }
}

TEST(FluidTest, DisjointSubtreesStayIndependentAtANearTie) {
  // Three flows into node 5 share its eject link at 20/3 MB/s; in the
  // other subtree one flow crosses an eject link degraded to 1/3. In
  // doubles the two shares differ in the last ulp, which a relative
  // freeze tolerance treats as one round, freezing the first set at the
  // second's share. In exact arithmetic each set gets its own rates and
  // completion times, together or alone.
  const FatTreeTopology topo(FatTreeConfig::cm5(32));
  const std::vector<FlowSpec> a = {{0, 5, 20000.0, 0},
                                   {1, 5, 20000.0, 0},
                                   {2, 5, 20000.0, 0}};
  const std::vector<FlowSpec> b = {{16, 20, 20000.0, 0}};
  expect_disjoint_union(a, b, {}, {{topo.eject_link(20), 1.0 / 3.0}});
  // The same with a degrade within 1e-13 of half speed against plain
  // half-speed sharing: four flows out of one 4-node cluster.
  const std::vector<FlowSpec> c = {{0, 4, 1920.0, 0},
                                   {1, 5, 1920.0, 0},
                                   {2, 6, 1920.0, 0},
                                   {3, 7, 1920.0, 0}};
  expect_disjoint_union(c, b, {},
                        {{topo.eject_link(20), 0.5 * (1.0 - 1e-13)}});
}

TEST(FluidTest, SolveRefillsOnlyTheDirtiedComponent) {
  const FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Component X: three flows into node 5. Component Y: four flows out of
  // the cluster of nodes 16-19, sharing its uplink.
  for (NodeId n = 0; n < 3; ++n) net.start_flow(0, n, 5, 1e9);
  for (NodeId n = 16; n < 20; ++n) {
    net.start_flow(0, n, static_cast<NodeId>(n + 4), 1e9);
  }
  ASSERT_TRUE(net.next_event().has_value());
  EXPECT_EQ(net.stats().flows_refilled, 7);
  // A fourth flow into node 5 joins X: the solve re-fills X's 4 flows.
  std::int64_t before = net.stats().flows_refilled;
  const FlowId joiner = net.start_flow(from_us(1), 3, 5, 1e9);
  ASSERT_TRUE(net.next_event().has_value());
  EXPECT_EQ(net.stats().flows_refilled - before, 4);
  // A flow that touches neither component is a component of its own.
  before = net.stats().flows_refilled;
  net.start_flow(from_us(2), 8, 9, 1e9);
  ASSERT_TRUE(net.next_event().has_value());
  EXPECT_EQ(net.stats().flows_refilled - before, 1);
  // One Y flow bridging into X's eject link merges both: 4 + 4 + 1.
  before = net.stats().flows_refilled;
  net.start_flow(from_us(3), 16, 5, 1e9);
  ASSERT_TRUE(net.next_event().has_value());
  EXPECT_EQ(net.stats().flows_refilled - before, 9);
  EXPECT_DOUBLE_EQ(net.flow_rate(joiner), 4e6);  // 20 MB/s over 5 flows
}

}  // namespace
}  // namespace cm5::net
