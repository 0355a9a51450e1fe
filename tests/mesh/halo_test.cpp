#include "cm5/mesh/halo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cm5/mesh/generate.hpp"
#include "cm5/util/check.hpp"

namespace cm5::mesh {
namespace {

TEST(HaloTest, VertexHaloOfTwoWaySplit) {
  // 4x2 grid split left/right by x-coordinate: the halo is the two
  // middle columns.
  const TriMesh m = perturbed_grid(4, 2, 0.0, 1);
  const std::vector<PartId> part = {0, 0, 1, 1, 0, 0, 1, 1};
  const HaloPlan halo = build_vertex_halo(m, part, 2);
  // Part 1 needs part 0's column-1 vertices (ids 1 and 5); adjacency
  // between columns 1 and 2 exists by construction.
  const auto s01 = halo.shared(0, 1);
  EXPECT_FALSE(s01.empty());
  for (std::int32_t v : s01) {
    EXPECT_EQ(part[static_cast<std::size_t>(v)], 0);
  }
  const auto s10 = halo.shared(1, 0);
  for (std::int32_t v : s10) {
    EXPECT_EQ(part[static_cast<std::size_t>(v)], 1);
  }
}

TEST(HaloTest, SharedVerticesAreExactlyBoundaryAdjacent) {
  const TriMesh m = perturbed_grid(16, 16, 0.2, 3);
  const auto part = rcb_vertex_partition(m, 8);
  const HaloPlan halo = build_vertex_halo(m, part, 8);
  for (PartId owner = 0; owner < 8; ++owner) {
    for (PartId reader = 0; reader < 8; ++reader) {
      if (owner == reader) continue;
      for (std::int32_t v : halo.shared(owner, reader)) {
        EXPECT_EQ(part[static_cast<std::size_t>(v)], owner);
        // v must have a neighbour in `reader`.
        bool adjacent = false;
        for (VertexId u : m.vertex_neighbors(static_cast<VertexId>(v))) {
          if (part[static_cast<std::size_t>(u)] == reader) {
            adjacent = true;
            break;
          }
        }
        EXPECT_TRUE(adjacent);
      }
    }
  }
}

TEST(HaloTest, VertexHaloCoversEveryCrossEdge) {
  // Completeness: for every mesh edge (u, v) with part(u) != part(v),
  // u must appear in shared(part(u), part(v)) and vice versa.
  const TriMesh m = airfoil_with_target(545, 6);
  const auto part = rcb_vertex_partition(m, 4);
  const HaloPlan halo = build_vertex_halo(m, part, 4);
  for (VertexId v = 0; v < m.num_vertices(); ++v) {
    for (VertexId u : m.vertex_neighbors(v)) {
      const PartId pv = part[static_cast<std::size_t>(v)];
      const PartId pu = part[static_cast<std::size_t>(u)];
      if (pv == pu) continue;
      const auto list = halo.shared(pv, pu);
      EXPECT_TRUE(std::binary_search(list.begin(), list.end(), v))
          << "vertex " << v << " missing from halo " << pv << "->" << pu;
    }
  }
}

TEST(HaloTest, CellHaloMatchesTriangleAdjacency) {
  const TriMesh m = airfoil_with_target(545, 6);
  const auto part = rcb_cell_partition(m, 4);
  const HaloPlan halo = build_cell_halo(m, part, 4);
  for (TriId t = 0; t < m.num_triangles(); ++t) {
    for (TriId n : m.tri_neighbors(t)) {
      if (n < 0) continue;
      const PartId pt = part[static_cast<std::size_t>(t)];
      const PartId pn = part[static_cast<std::size_t>(n)];
      if (pt == pn) continue;
      const auto list = halo.shared(pt, pn);
      EXPECT_TRUE(std::binary_search(list.begin(), list.end(), t));
    }
  }
}

TEST(HaloTest, PatternMatchesSharedCounts) {
  const TriMesh m = perturbed_grid(16, 16, 0.1, 5);
  const auto part = rcb_vertex_partition(m, 8);
  const HaloPlan halo = build_vertex_halo(m, part, 8);
  const sched::CommPattern p = halo.pattern(8);
  for (PartId o = 0; o < 8; ++o) {
    for (PartId r = 0; r < 8; ++r) {
      if (o == r) continue;
      EXPECT_EQ(p.at(o, r),
                8 * static_cast<std::int64_t>(halo.shared(o, r).size()));
    }
  }
}

TEST(HaloTest, MeshPatternsAreSparse) {
  // The whole point of Table 12: real mesh workloads have low
  // communication density (9-44% in the paper). An RCB-partitioned
  // planar mesh on 32 parts must be far from complete exchange.
  const TriMesh m = airfoil_with_target(9216, 8);
  const auto part = rcb_vertex_partition(m, 32);
  const HaloPlan halo = build_vertex_halo(m, part, 32);
  const double density = halo.pattern(8).density();
  EXPECT_GT(density, 0.03);
  EXPECT_LT(density, 0.50);
}

TEST(HaloTest, GhostCountsConsistent) {
  const TriMesh m = perturbed_grid(12, 12, 0.1, 4);
  const auto part = rcb_vertex_partition(m, 4);
  const HaloPlan halo = build_vertex_halo(m, part, 4);
  std::int64_t total_ghosts = 0;
  for (PartId r = 0; r < 4; ++r) total_ghosts += halo.ghosts_of(r);
  std::int64_t total_shared = 0;
  for (PartId o = 0; o < 4; ++o) {
    for (PartId r = 0; r < 4; ++r) {
      if (o != r) total_shared += static_cast<std::int64_t>(halo.shared(o, r).size());
    }
  }
  EXPECT_EQ(total_ghosts, total_shared);
  EXPECT_GT(total_ghosts, 0);
}

TEST(HaloTest, PlanFromUnorderedShares) {
  // Shares arrive in any order with duplicates; each (owner, reader)
  // list comes out sorted and de-duplicated, and pairs with no share
  // read as empty.
  const HaloPlan halo(4, {{2, 0, 9},
                          {0, 3, 5},
                          {2, 0, 4},
                          {0, 1, 7},
                          {2, 0, 9},
                          {0, 3, 1}});
  const auto list = [&](PartId o, PartId r) {
    const auto s = halo.shared(o, r);
    return std::vector<std::int32_t>(s.begin(), s.end());
  };
  EXPECT_EQ(list(0, 1), (std::vector<std::int32_t>{7}));
  EXPECT_EQ(list(0, 3), (std::vector<std::int32_t>{1, 5}));
  EXPECT_EQ(list(2, 0), (std::vector<std::int32_t>{4, 9}));
  EXPECT_TRUE(list(0, 2).empty());
  EXPECT_TRUE(list(1, 0).empty());
  EXPECT_TRUE(list(3, 3).empty());
  EXPECT_EQ(halo.ghosts_of(0), 2);
  EXPECT_EQ(halo.ghosts_of(2), 0);
  EXPECT_EQ(halo.ghosts_of(3), 2);
  const sched::CommPattern p = halo.pattern(8);
  EXPECT_EQ(p.at(0, 3), 16);
  EXPECT_EQ(p.at(2, 0), 16);
  EXPECT_EQ(p.at(1, 0), 0);
  EXPECT_THROW(HaloPlan(4, {{1, 1, 0}}), util::CheckError);
  EXPECT_THROW(HaloPlan(4, {{0, 4, 0}}), util::CheckError);
}

}  // namespace
}  // namespace cm5::mesh
