#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cm5/mesh/mesh.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/sched/pattern.hpp"

/// \file halo.hpp
/// Halo (ghost) exchange plans derived from a partitioned mesh — the
/// bridge between the mesh substrate and the paper's Table 12: "the
/// communication patterns in these problems can be captured and
/// scheduled at runtime".

namespace cm5::mesh {

/// The exchange plan of one partitioned computation: for every ordered
/// pair of parts (p, q), the list of entity ids (vertices or cells) that
/// p owns and q reads. Both sides keep the lists sorted by global id so
/// sender and receiver agree on the serialization order.
///
/// Stored as compressed rows: each owner's non-empty (reader, list)
/// pairs, by reader, over one id array. A partition shares with a few
/// neighbours, so this is O(shared ids) where an N x N table of lists
/// would be O(N^2).
class HaloPlan {
 public:
  /// One shared entity: `id`, owned by part `owner`, read by `reader`.
  struct Share {
    PartId owner;
    PartId reader;
    std::int32_t id;
    auto operator<=>(const Share&) const = default;
  };

  /// The plan of `shares`, given in any order; duplicates are dropped.
  /// Every share names two distinct parts in [0, nparts).
  HaloPlan(std::int32_t nparts, std::vector<Share> shares);

  std::int32_t nparts() const noexcept { return nparts_; }

  /// Entities owned by `owner` whose values `reader` needs.
  std::span<const std::int32_t> shared(PartId owner, PartId reader) const;

  /// The communication pattern of one exchange: bytes[i][j] =
  /// bytes_per_entity * |shared(i, j)| — entry (i, j) is what processor
  /// i must *send* to processor j.
  sched::CommPattern pattern(std::int64_t bytes_per_entity) const;

  /// Total ghost entities received by `reader`.
  std::int64_t ghosts_of(PartId reader) const;

 private:
  std::int32_t nparts_;
  /// Owner p's pairs are [row_begin_[p], row_begin_[p + 1]).
  std::vector<std::size_t> row_begin_;
  /// Per pair: its reader (ascending within a row), and where its list
  /// starts in ids_; pair k's list ends where pair k + 1's starts.
  std::vector<PartId> readers_;
  std::vector<std::size_t> list_begin_;
  std::vector<std::int32_t> ids_;
};

/// Vertex-based halo (nodal solvers like CG): reader part q needs owned
/// vertex v of part p whenever some vertex of q is adjacent to v.
HaloPlan build_vertex_halo(const TriMesh& mesh,
                           std::span<const PartId> vertex_part,
                           std::int32_t nparts);

/// Cell-based halo (cell-centred solvers like the Euler code): reader q
/// needs owned cell t of part p whenever a cell of q shares an edge
/// with t.
HaloPlan build_cell_halo(const TriMesh& mesh,
                         std::span<const PartId> cell_part,
                         std::int32_t nparts);

}  // namespace cm5::mesh
