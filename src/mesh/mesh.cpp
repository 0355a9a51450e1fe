#include "cm5/mesh/mesh.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "cm5/util/check.hpp"

namespace cm5::mesh {

TriMesh::TriMesh(std::vector<Point> vertices, std::vector<Triangle> triangles)
    : vertices_(std::move(vertices)), triangles_(std::move(triangles)) {
  CM5_CHECK_MSG(vertices_.size() >= 3, "a mesh needs at least 3 vertices");
  CM5_CHECK_MSG(!triangles_.empty(), "a mesh needs at least one triangle");
  for (const Triangle& t : triangles_) {
    for (VertexId v : t.v) {
      CM5_CHECK_MSG(v >= 0 && v < num_vertices(), "triangle vertex out of range");
    }
    CM5_CHECK_MSG(t.v[0] != t.v[1] && t.v[1] != t.v[2] && t.v[0] != t.v[2],
                  "triangle with repeated vertices");
  }
  build_adjacency();
  for (TriId t = 0; t < num_triangles(); ++t) {
    CM5_CHECK_MSG(signed_area(t) > 1e-14,
                  "triangle is degenerate or clockwise-oriented");
  }
}

std::size_t TriMesh::check_v(VertexId v) const {
  CM5_CHECK(v >= 0 && v < num_vertices());
  return static_cast<std::size_t>(v);
}

std::size_t TriMesh::check_t(TriId t) const {
  CM5_CHECK(t >= 0 && t < num_triangles());
  return static_cast<std::size_t>(t);
}

void TriMesh::build_adjacency() {
  // Every triangle's three edges as (lo, hi, triangle, edge e opposite
  // vertex e), sorted so the uses of one edge sit together.
  struct EdgeUse {
    VertexId lo;
    VertexId hi;
    TriId tri;
    std::int32_t edge;
  };
  std::vector<EdgeUse> uses;
  uses.reserve(3 * static_cast<std::size_t>(num_triangles()));
  for (TriId t = 0; t < num_triangles(); ++t) {
    const Triangle& tri = triangles_[static_cast<std::size_t>(t)];
    for (std::int32_t e = 0; e < 3; ++e) {
      const VertexId a = tri.v[static_cast<std::size_t>((e + 1) % 3)];
      const VertexId b = tri.v[static_cast<std::size_t>((e + 2) % 3)];
      uses.push_back({std::min(a, b), std::max(a, b), t, e});
    }
  }
  std::sort(uses.begin(), uses.end(), [](const EdgeUse& x, const EdgeUse& y) {
    return std::tie(x.lo, x.hi) < std::tie(y.lo, y.hi);
  });

  // One pass over the runs of equal (lo, hi): a run of one is a boundary
  // edge, a run of two links its triangles. `edges` keeps each edge once,
  // in (lo, hi) order.
  num_boundary_edges_ = 0;
  tri_neighbors_.assign(static_cast<std::size_t>(num_triangles()),
                        {-1, -1, -1});
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (std::size_t i = 0; i < uses.size();) {
    std::size_t j = i + 1;
    while (j < uses.size() && uses[j].lo == uses[i].lo &&
           uses[j].hi == uses[i].hi) {
      ++j;
    }
    CM5_CHECK_MSG(j - i <= 2, "edge shared by more than two triangles");
    if (j - i == 1) {
      ++num_boundary_edges_;
    } else {
      const EdgeUse& x = uses[i];
      const EdgeUse& y = uses[i + 1];
      tri_neighbors_[static_cast<std::size_t>(x.tri)]
                    [static_cast<std::size_t>(x.edge)] = y.tri;
      tri_neighbors_[static_cast<std::size_t>(y.tri)]
                    [static_cast<std::size_t>(y.edge)] = x.tri;
    }
    edges.emplace_back(uses[i].lo, uses[i].hi);
    i = j;
  }
  num_edges_ = static_cast<std::int32_t>(edges.size());

  // CSR vertex adjacency from the edge set. Walking the edges in (lo, hi)
  // order appends each vertex's lower neighbours (as hi) in increasing
  // order before its higher ones (as lo), so every list comes out sorted.
  vertex_adj_offset_.assign(static_cast<std::size_t>(num_vertices()) + 1, 0);
  for (const auto& [lo, hi] : edges) {
    ++vertex_adj_offset_[static_cast<std::size_t>(lo) + 1];
    ++vertex_adj_offset_[static_cast<std::size_t>(hi) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_vertices()); ++v) {
    vertex_adj_offset_[v + 1] += vertex_adj_offset_[v];
  }
  vertex_adj_.assign(static_cast<std::size_t>(2 * num_edges_), -1);
  std::vector<std::int32_t> fill(vertex_adj_offset_.begin(),
                                 vertex_adj_offset_.end() - 1);
  for (const auto& [lo, hi] : edges) {
    vertex_adj_[static_cast<std::size_t>(fill[static_cast<std::size_t>(lo)]++)] =
        hi;
    vertex_adj_[static_cast<std::size_t>(fill[static_cast<std::size_t>(hi)]++)] =
        lo;
  }
}

std::span<const VertexId> TriMesh::vertex_neighbors(VertexId v) const {
  const std::size_t i = check_v(v);
  const auto begin = static_cast<std::size_t>(vertex_adj_offset_[i]);
  const auto end = static_cast<std::size_t>(vertex_adj_offset_[i + 1]);
  return std::span(vertex_adj_).subspan(begin, end - begin);
}

double TriMesh::signed_area(TriId t) const {
  const Triangle& tri = triangles_[check_t(t)];
  const Point& a = vertices_[static_cast<std::size_t>(tri.v[0])];
  const Point& b = vertices_[static_cast<std::size_t>(tri.v[1])];
  const Point& c = vertices_[static_cast<std::size_t>(tri.v[2])];
  return 0.5 * ((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y));
}

Point TriMesh::centroid(TriId t) const {
  const Triangle& tri = triangles_[check_t(t)];
  const Point& a = vertices_[static_cast<std::size_t>(tri.v[0])];
  const Point& b = vertices_[static_cast<std::size_t>(tri.v[1])];
  const Point& c = vertices_[static_cast<std::size_t>(tri.v[2])];
  return Point{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
}

}  // namespace cm5::mesh
