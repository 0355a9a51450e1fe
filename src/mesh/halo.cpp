#include "cm5/mesh/halo.hpp"

#include <algorithm>
#include <compare>
#include <utility>

#include "cm5/util/check.hpp"

namespace cm5::mesh {

HaloPlan::HaloPlan(std::int32_t nparts,
                   std::vector<std::vector<std::vector<std::int32_t>>> lists)
    : nparts_(nparts), lists_(std::move(lists)) {
  CM5_CHECK(nparts_ >= 1);
  CM5_CHECK(lists_.size() == static_cast<std::size_t>(nparts_));
  for (const auto& row : lists_) {
    CM5_CHECK(row.size() == static_cast<std::size_t>(nparts_));
    for (const auto& list : row) {
      CM5_CHECK_MSG(std::is_sorted(list.begin(), list.end()),
                    "halo lists must be sorted");
    }
  }
}

std::span<const std::int32_t> HaloPlan::shared(PartId owner,
                                               PartId reader) const {
  CM5_CHECK(owner >= 0 && owner < nparts_ && reader >= 0 && reader < nparts_);
  return lists_[static_cast<std::size_t>(owner)][static_cast<std::size_t>(reader)];
}

sched::CommPattern HaloPlan::pattern(std::int64_t bytes_per_entity) const {
  CM5_CHECK(bytes_per_entity >= 1);
  sched::CommPattern p(nparts_);
  for (PartId owner = 0; owner < nparts_; ++owner) {
    for (PartId reader = 0; reader < nparts_; ++reader) {
      if (owner == reader) continue;
      const auto count = static_cast<std::int64_t>(shared(owner, reader).size());
      if (count > 0) p.set(owner, reader, count * bytes_per_entity);
    }
  }
  return p;
}

std::int64_t HaloPlan::ghosts_of(PartId reader) const {
  std::int64_t total = 0;
  for (PartId owner = 0; owner < nparts_; ++owner) {
    if (owner != reader) {
      total += static_cast<std::int64_t>(shared(owner, reader).size());
    }
  }
  return total;
}

namespace {

/// One shared entity: `id`, owned by part `owner`, read by `reader`.
struct Share {
  PartId owner;
  PartId reader;
  std::int32_t id;
  auto operator<=>(const Share&) const = default;
};

/// The halo lists of `shares`: sorted, duplicates dropped, grouped into
/// lists[owner][reader].
HaloPlan plan_from(std::vector<Share> shares, std::int32_t nparts) {
  std::sort(shares.begin(), shares.end());
  shares.erase(std::unique(shares.begin(), shares.end()), shares.end());
  std::vector<std::vector<std::vector<std::int32_t>>> lists(
      static_cast<std::size_t>(nparts),
      std::vector<std::vector<std::int32_t>>(static_cast<std::size_t>(nparts)));
  for (const Share& s : shares) {
    lists[static_cast<std::size_t>(s.owner)][static_cast<std::size_t>(s.reader)]
        .push_back(s.id);
  }
  return HaloPlan(nparts, std::move(lists));
}

}  // namespace

HaloPlan build_vertex_halo(const TriMesh& mesh,
                           std::span<const PartId> vertex_part,
                           std::int32_t nparts) {
  CM5_CHECK(vertex_part.size() == static_cast<std::size_t>(mesh.num_vertices()));
  std::vector<Share> shares;
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    const PartId owner = vertex_part[static_cast<std::size_t>(v)];
    for (VertexId u : mesh.vertex_neighbors(v)) {
      const PartId reader = vertex_part[static_cast<std::size_t>(u)];
      if (reader != owner) shares.push_back({owner, reader, v});
    }
  }
  return plan_from(std::move(shares), nparts);
}

HaloPlan build_cell_halo(const TriMesh& mesh, std::span<const PartId> cell_part,
                         std::int32_t nparts) {
  CM5_CHECK(cell_part.size() == static_cast<std::size_t>(mesh.num_triangles()));
  std::vector<Share> shares;
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    const PartId owner = cell_part[static_cast<std::size_t>(t)];
    for (TriId n : mesh.tri_neighbors(t)) {
      if (n < 0) continue;  // boundary edge
      const PartId reader = cell_part[static_cast<std::size_t>(n)];
      if (reader != owner) shares.push_back({owner, reader, t});
    }
  }
  return plan_from(std::move(shares), nparts);
}

}  // namespace cm5::mesh
