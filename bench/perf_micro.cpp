/// Microbenchmarks (google-benchmark) of the fluid network's fast paths:
/// the on-demand route computation, the component-local max-min solver
/// under single-flow churn, the heap-backed next_event() lookup, and a
/// full exchange-step drain. These are the host-time costs docs/PERF.md
/// documents; run in Release mode.

#include <benchmark/benchmark.h>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/rng.hpp"

namespace {

using namespace cm5;

void BM_RouteLookup(benchmark::State& state) {
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  util::Rng rng(17);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs(1024);
  for (auto& [s, d] : pairs) {
    s = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    do {
      d = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    } while (d == s);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(topo.route(s, d).data());
  }
}
BENCHMARK(BM_RouteLookup)->Arg(32)->Arg(256);

/// One small flow starting and completing in one of K link-disjoint
/// groups, each a 4-node cluster of a 256-node tree holding 16 standing
/// long-lived flows among its own nodes. Each solve re-fills only the
/// churning group's component, so the cost per churn should stay flat as
/// K (and with it the total number of active flows) grows.
void BM_SolverChurnLocal(benchmark::State& state) {
  const auto groups = static_cast<std::int32_t>(state.range(0));
  const std::int32_t nprocs = 256;
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  util::SimTime t = 0;
  for (std::int32_t g = 0; g < groups; ++g) {
    for (std::int32_t f = 0; f < 16; ++f) {
      const std::int32_t s = f / 4;
      const std::int32_t d = (s + 1 + f % 3) % 4;
      nw.start_flow(t, 4 * g + s, 4 * g + d, 1e15);  // never completes
    }
  }
  const std::size_t background = nw.active_flows();
  util::Rng rng(23);
  for (auto _ : state) {
    const auto s = static_cast<net::NodeId>(rng.next_below(4));
    nw.start_flow(t, s, (s + 1) % 4, 64.0);  // always in group 0
    while (nw.active_flows() > background) {
      const auto ev = nw.next_event();
      t = *ev;
      benchmark::DoNotOptimize(nw.advance_to(t).size());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows_refilled_per_solve"] =
      static_cast<double>(nw.stats().flows_refilled) /
      static_cast<double>(nw.stats().rate_solves);
}
BENCHMARK(BM_SolverChurnLocal)->Arg(1)->Arg(8)->Arg(64);

void BM_NextEventPeek(benchmark::State& state) {
  // Steady-state next_event() with many active flows: after the first
  // resolve this is a heap peek, independent of the flow count.
  const auto flows = static_cast<std::int32_t>(state.range(0));
  const std::int32_t nprocs = 256;
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  util::Rng rng(29);
  for (std::int32_t f = 0; f < flows; ++f) {
    const auto s = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    auto d = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    if (d == s) d = (d + 1) % nprocs;
    nw.start_flow(0, s, d, 1e12);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw.next_event());
  }
}
BENCHMARK(BM_NextEventPeek)->Arg(64)->Arg(1024);

void BM_ExchangeStepDrain(benchmark::State& state) {
  // One complete-exchange step at the fluid layer: N simultaneous
  // permutation flows started in a batch, then drained to completion.
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  util::SimTime t = 0;
  std::int32_t step = 1;
  for (auto _ : state) {
    for (std::int32_t i = 0; i < nprocs; ++i) {
      nw.start_flow(t, i, (i + step) % nprocs, 1920.0);
    }
    while (nw.active_flows() > 0) {
      const auto ev = nw.next_event();
      t = *ev;
      benchmark::DoNotOptimize(nw.advance_to(t).size());
    }
    step = step % (nprocs - 1) + 1;
  }
  state.SetItemsProcessed(state.iterations() * nprocs);
}
BENCHMARK(BM_ExchangeStepDrain)->Arg(32)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
