#include "cm5/mesh/halo.hpp"

#include <algorithm>
#include <utility>

#include "cm5/util/check.hpp"

namespace cm5::mesh {

HaloPlan::HaloPlan(std::int32_t nparts, std::vector<Share> shares)
    : nparts_(nparts) {
  CM5_CHECK(nparts_ >= 1);
  std::sort(shares.begin(), shares.end());
  shares.erase(std::unique(shares.begin(), shares.end()), shares.end());
  row_begin_.assign(static_cast<std::size_t>(nparts_) + 1, 0);
  ids_.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const Share& s = shares[i];
    CM5_CHECK_MSG(s.owner >= 0 && s.owner < nparts_ && s.reader >= 0 &&
                      s.reader < nparts_ && s.owner != s.reader,
                  "halo share must name two distinct parts");
    if (i == 0 || s.owner != shares[i - 1].owner ||
        s.reader != shares[i - 1].reader) {
      readers_.push_back(s.reader);
      list_begin_.push_back(ids_.size());
      ++row_begin_[static_cast<std::size_t>(s.owner) + 1];
    }
    ids_.push_back(s.id);
  }
  list_begin_.push_back(ids_.size());
  for (std::size_t p = 1; p < row_begin_.size(); ++p) {
    row_begin_[p] += row_begin_[p - 1];
  }
}

std::span<const std::int32_t> HaloPlan::shared(PartId owner,
                                               PartId reader) const {
  CM5_CHECK(owner >= 0 && owner < nparts_ && reader >= 0 && reader < nparts_);
  const auto row = static_cast<std::size_t>(owner);
  const auto begin = readers_.begin();
  const auto last = begin + static_cast<std::ptrdiff_t>(row_begin_[row + 1]);
  const auto it = std::lower_bound(
      begin + static_cast<std::ptrdiff_t>(row_begin_[row]), last, reader);
  if (it == last || *it != reader) return {};
  const auto k = static_cast<std::size_t>(it - begin);
  return {ids_.data() + list_begin_[k], list_begin_[k + 1] - list_begin_[k]};
}

sched::CommPattern HaloPlan::pattern(std::int64_t bytes_per_entity) const {
  CM5_CHECK(bytes_per_entity >= 1);
  sched::CommPattern p(nparts_);
  for (PartId owner = 0; owner < nparts_; ++owner) {
    const auto row = static_cast<std::size_t>(owner);
    for (std::size_t k = row_begin_[row]; k < row_begin_[row + 1]; ++k) {
      const auto count =
          static_cast<std::int64_t>(list_begin_[k + 1] - list_begin_[k]);
      p.set(owner, readers_[k], count * bytes_per_entity);
    }
  }
  return p;
}

std::int64_t HaloPlan::ghosts_of(PartId reader) const {
  CM5_CHECK(reader >= 0 && reader < nparts_);
  std::int64_t total = 0;
  for (std::size_t k = 0; k < readers_.size(); ++k) {
    if (readers_[k] == reader) {
      total += static_cast<std::int64_t>(list_begin_[k + 1] - list_begin_[k]);
    }
  }
  return total;
}

HaloPlan build_vertex_halo(const TriMesh& mesh,
                           std::span<const PartId> vertex_part,
                           std::int32_t nparts) {
  CM5_CHECK(vertex_part.size() == static_cast<std::size_t>(mesh.num_vertices()));
  std::vector<HaloPlan::Share> shares;
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    const PartId owner = vertex_part[static_cast<std::size_t>(v)];
    for (VertexId u : mesh.vertex_neighbors(v)) {
      const PartId reader = vertex_part[static_cast<std::size_t>(u)];
      if (reader != owner) shares.push_back({owner, reader, v});
    }
  }
  return HaloPlan(nparts, std::move(shares));
}

HaloPlan build_cell_halo(const TriMesh& mesh, std::span<const PartId> cell_part,
                         std::int32_t nparts) {
  CM5_CHECK(cell_part.size() == static_cast<std::size_t>(mesh.num_triangles()));
  std::vector<HaloPlan::Share> shares;
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    const PartId owner = cell_part[static_cast<std::size_t>(t)];
    for (TriId n : mesh.tri_neighbors(t)) {
      if (n < 0) continue;  // boundary edge
      const PartId reader = cell_part[static_cast<std::size_t>(n)];
      if (reader != owner) shares.push_back({owner, reader, t});
    }
  }
  return HaloPlan(nparts, std::move(shares));
}

}  // namespace cm5::mesh
