#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/util/time.hpp"

/// Disjoint-union metamorphic tests at machine level: two exchanges
/// confined to the two link-disjoint 16-node subtrees of a 32-node CM-5
/// must give every node the same finish time whether they run together
/// or each alone. No second implementation is needed — the run is its
/// own oracle.
///
/// Scope: the two halves here change rates at the same instants. Rates
/// are exact (tests/network/fluid_test.cpp checks them after every event
/// of staggered sets too), but flow progress is still stepped in doubles
/// at every network event, so a foreign event in the middle of a transfer
/// can move its ceil'd completion by a nanosecond (see MODEL.md, "Rate
/// arithmetic").

namespace cm5::machine {
namespace {

constexpr std::int32_t kNodes = 32;
constexpr std::int32_t kHalf = 16;

/// Which halves run, and how node 20's links are degraded (1 = healthy).
struct Setup {
  bool left = true;
  bool right = true;
  double right_degrade = 1.0;
};

/// Runs a pairwise exchange of `bytes` within each enabled half (node i
/// swaps with i XOR k for k = 1..15, which stays in i's half) and
/// returns every node's finish time. Nodes of a disabled half return at
/// once.
std::vector<util::SimTime> run(const Setup& setup, std::int64_t bytes) {
  Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
  if (setup.right_degrade != 1.0) {
    sim::FaultPlan plan;
    plan.degrades.push_back({20, 0, setup.right_degrade});
    machine.set_fault_plan(plan);
  }
  return machine
      .run([&](Node& node) {
        const bool left = node.self() < kHalf;
        if (left ? !setup.left : !setup.right) return;
        for (NodeId k = 1; k < kHalf; ++k) {
          (void)node.swap_block(node.self() ^ k, bytes);
        }
      })
      .finish_time;
}

void expect_union_matches_halves(double right_degrade, std::int64_t bytes) {
  const auto both = run({true, true, right_degrade}, bytes);
  const auto left = run({true, false, right_degrade}, bytes);
  const auto right = run({false, true, right_degrade}, bytes);
  for (NodeId n = 0; n < kNodes; ++n) {
    const auto alone = n < kHalf ? left : right;
    EXPECT_GT(both[static_cast<std::size_t>(n)], 0);
    EXPECT_EQ(both[static_cast<std::size_t>(n)],
              alone[static_cast<std::size_t>(n)])
        << "node " << n << ", degrade " << right_degrade << ", " << bytes
        << " B";
  }
}

TEST(DisjointUnionTest, HealthyExchangesInDisjointSubtrees) {
  expect_union_matches_halves(1.0, 1920);
  expect_union_matches_halves(1.0, 512);
}

TEST(DisjointUnionTest, NearTieDegradeInOneSubtree) {
  // Node 20's links run within 1e-13 of half speed, so its flows' share
  // nearly ties the 10 MB/s the other subtree's cluster uplinks give
  // their four flows each. A relative freeze tolerance merges the two
  // into one round and slows the healthy subtree to the degraded share;
  // exact shares keep the subtrees apart.
  expect_union_matches_halves(0.5 * (1.0 - 1e-13), 1920);
}

}  // namespace
}  // namespace cm5::machine
