#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cm5/net/maxmin.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/time.hpp"

/// \file fluid_network.hpp
/// Event-driven fluid (flow-level) simulation of the fat-tree data network.
///
/// Each in-flight message is a flow along its route. At any instant all
/// active flows progress at max-min fair rates; rates change only when a
/// flow starts or finishes. The owner (the DES kernel) drives this object
/// with monotonically non-decreasing times:
///
///   start_flow(t, ...)  ->  flow enters at time t
///   next_event()        ->  earliest projected completion, if any
///   advance_to(t)       ->  progress all flows to time t, collect
///                           completions
///
/// Rate re-solves are batched: starting k flows at the same instant costs
/// one re-solve, which matters because the paper's algorithms launch whole
/// steps of flows simultaneously.
///
/// Two performance-critical structures back this API (see docs/PERF.md):
///
/// * An *incremental* max-min solver in exact integer arithmetic (rates
///   in units of 2^-24 B/s, see maxmin.hpp and MODEL.md "Rate
///   arithmetic"). Exact shares and ties make a connected component's
///   allocation independent of every other component and of FlowId
///   order, so a solve re-fills only the flows reachable from the dirtied
///   links through the link -> flows -> links sharing graph; every other
///   flow keeps its rate and heap entry untouched. Each link keeps the
///   list of its live flows, updated in O(1) per route link as flows
///   start and retire. A link that carries a single flow cannot couple
///   two flows: the walk and the filling rounds skip it, and its flow
///   instead carries a private cap (the least capacity of such links on
///   its route), which joins each round's minimum. Link loads are kept
///   by deltas as rates change. Nothing allocates once warm.
///   solve_max_min computes the same rates bit for bit and is the tests'
///   reference.
///
/// * A lazy min-heap of projected completion times, so next_event() is a
///   heap peek instead of a scan over every active flow. Entries are
///   invalidated by a per-flow epoch counter: each re-solve bumps the
///   epoch of the flows whose projection changed and pushes a fresh
///   entry; stale entries are discarded when they surface at the top.
///   next_event() walks, without popping, the entries within a small
///   window of the heap top and reprojects them fresh from the current
///   time, so the times it returns are bit-identical to the original
///   O(F) rescan (see fluid_network.cpp).

namespace cm5::net {

/// Identifier of an in-flight flow, unique within a FluidNetwork instance.
using FlowId = std::int64_t;

/// Aggregate traffic statistics, queryable after (or during) a run.
struct NetworkStats {
  /// Wire bytes carried per tree level: [0] = node links (inject+eject),
  /// [l] = level-l subtree links. Counts each byte once per link crossed.
  std::vector<double> bytes_by_level;
  /// Wire bytes carried by each individual link.
  std::vector<double> bytes_by_link;
  /// Time-integrated utilization per link: seconds the link spent busy,
  /// weighted by load fraction (sum over intervals of dt * min(1,
  /// load/capacity)). Divide by the makespan for average utilization —
  /// the contention evidence behind the paper's §3.4 argument.
  std::vector<double> link_busy_seconds;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  /// Number of max-min re-solves performed (a cost/behaviour metric).
  std::int64_t rate_solves = 0;
  /// Flows re-frozen, summed over solves: the size of the component each
  /// solve re-filled (a cost metric, reported beside rate_solves).
  std::int64_t flows_refilled = 0;
  /// Shared links (carrying two or more flows) filled, summed over
  /// solves; single-flow links enter a solve only as private caps.
  std::int64_t links_refilled = 0;
  /// Number of completion-heap pops: stale entries discarded at the heap
  /// top. next_event() reads its window without popping, so this is a
  /// cost metric for invalidated projections, reported in bench perf JSON.
  std::int64_t heap_pops = 0;
};

/// Flow-level network simulation over a FatTreeTopology.
class FluidNetwork {
 public:
  explicit FluidNetwork(const FatTreeTopology& topo);

  /// Starts a flow of `wire_bytes` from src to dst at time `now`.
  /// `now` must be >= the time of every previous call. A zero-byte flow
  /// is legal and completes instantly at `now`.
  FlowId start_flow(util::SimTime now, NodeId src, NodeId dst,
                    double wire_bytes);

  /// Earliest projected completion time over all active flows, or
  /// nullopt if the network is idle. Never earlier than the last
  /// advance/start time.
  std::optional<util::SimTime> next_event();

  /// Advances the fluid state to time t (>= last time seen) and returns
  /// the flows that completed, in (completion_time, FlowId) order.
  std::vector<FlowId> advance_to(util::SimTime t);

  /// Number of currently active flows.
  std::size_t active_flows() const noexcept { return active_slots_.size(); }

  /// Scales the capacity of one link to `scale` x its topology capacity,
  /// effective from time `now` (fluid state up to `now` progresses at the
  /// old rates first). Used by the fault-injection layer to model link
  /// degradation; `scale` must be >= 0 (0 stalls the link entirely).
  void set_link_capacity_scale(util::SimTime now, LinkId link, double scale);

  /// Current capacity scale of a link (1.0 unless degraded).
  double link_capacity_scale(LinkId link) const;

  /// Test hook: the current max-min rate (bytes/s) of an active flow.
  /// Re-solves if rates are stale, so calling it perturbs rate_solves.
  double flow_rate(FlowId id);

  const NetworkStats& stats() const noexcept { return stats_; }
  const FatTreeTopology& topology() const noexcept { return topo_; }

 private:
  /// Slot-based flow storage: completed flows free their slot for reuse,
  /// so memory stays proportional to the peak number of concurrent flows.
  struct Slot {
    // Fields a solve or progress step reads come first, so that with the
    // used head of route_links they share the slot's first cache lines.
    FlowId id = -1;
    /// Current max-min rate: exact in rate units, and the same value in
    /// bytes/s for the progress and projection arithmetic.
    RateUnits rate_units = 0;
    double rate = 0.0;
    double bytes_remaining = 0.0;
    /// Solve generation that last reached this flow, and whether that
    /// solve has frozen it yet.
    std::uint64_t visit_gen = 0;
    /// Least capacity over the route links that carry only this flow
    /// (kUnboundedRate if none), set when a solve reaches the flow.
    RateUnits private_cap = kUnboundedRate;
    bool frozen = false;
    bool live = false;
    std::uint8_t route_len = 0;
    NodeId src = -1;
    NodeId dst = -1;
    /// Invalidation counter for heap entries; bumped whenever the slot's
    /// outstanding entry becomes wrong (new projection, flow retired).
    std::uint64_t epoch = 0;
    /// Time of this slot's valid heap entry; -1 (kNoHeapEntry) if none.
    util::SimTime heap_time = -1;
    /// Route links, copied inline at start_flow (topology route_into):
    /// slot reuse never allocates and flow state holds no pointers into
    /// topology-owned tables, which is what lets routes be computed on
    /// demand instead of tabulated O(N²).
    std::array<LinkId, kMaxRouteLinks> route_links{};
    /// link_pos[h]: this flow's index in route_links[h]'s flow list.
    std::array<std::uint32_t, kMaxRouteLinks> link_pos{};
    std::uint32_t active_pos = 0;  // index in active_slots_
    std::span<const LinkId> route() const noexcept {
      return {route_links.data(), route_len};
    }
  };

  /// A flow on a link's list: its slot, and the link's index in the
  /// flow's route (so a removal can fix the moved entry's link_pos).
  struct LinkEntry {
    std::uint32_t slot;
    std::uint32_t hop;
  };

  struct HeapEntry {
    util::SimTime time;
    FlowId id;
    std::uint32_t slot;
    std::uint64_t epoch;
  };

  /// Min-heap ordering for std::push_heap/pop_heap (which build max-heaps).
  static bool heap_later(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.time > b.time;
  }

  void resolve_rates();
  /// Adds a shared link to the component being re-filled, once per
  /// solve, and resets its filling state.
  void reach_link(LinkId l);
  /// Adds a flow to the component, once per solve: records its private
  /// cap and reaches its shared links. Returns whether it was new.
  bool collect_flow(std::uint32_t si);
  /// Freezes one flow of the component at `share` rate units, moving
  /// its links' loads by the change in its rate.
  void freeze(std::uint32_t si, RateUnits share);
  /// The fresh completion projection of a flow that is done or has a
  /// positive rate.
  util::SimTime projection(const Slot& f) const;
  /// Recomputes a slot's projected completion and (if it changed) pushes
  /// a fresh heap entry, invalidating the old one via the epoch.
  void refresh_heap_entry(std::uint32_t si);
  /// Drops invalid heap entries so the heap never outgrows the live set
  /// by more than a constant factor.
  void compact_heap();
  bool heap_entry_valid(const HeapEntry& e) const;
  /// Marks a link's rates as needing a re-solve.
  void mark_dirty(LinkId l);
  /// Frees a completed flow's slot, removes it from its links' flow lists
  /// and dirties those links.
  void retire_slot(std::uint32_t si);
  /// Moves fluid state (bytes + busy accounting) forward to time t.
  void progress_to(util::SimTime t);

  const FatTreeTopology& topo_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Slots of the live flows, in no particular order; Slot::active_pos
  /// is each one's index here.
  std::vector<std::uint32_t> active_slots_;

  /// Everything a solve or progress step keeps per link, in one record
  /// so that reaching a link touches one or two cache lines.
  struct LinkState {
    /// The link's live flows, in no particular order: start_flow
    /// appends, and retiring swaps the last entry into the gap.
    std::vector<LinkEntry> flows;
    RateUnits capacity = 0;  // topology capacity x scale
    /// Exact sum of the link's flow rates, moved by each rate change and
    /// retirement rather than rebuilt per solve.
    RateUnits load = 0;
    /// Progressive-filling state while a shared link is in a component:
    /// residual capacity, unfrozen flows, and floor(residual / unfrozen)
    /// or -1 until recomputed after a freeze.
    RateUnits residual = 0;
    RateUnits share = -1;
    std::int64_t unfrozen = 0;
    /// Solve generation that last reached the link (shared links only).
    std::uint64_t gen = 0;
    /// Index in live_links_ while the link has flows.
    std::uint32_t live_pos = 0;
    /// Flow set or capacity changed since the last solve.
    bool dirty = false;
  };
  std::vector<LinkState> links_;
  /// Links with at least one live flow, in no particular order.
  std::vector<LinkId> live_links_;
  std::vector<double> capacity_scale_;  // degradation multipliers (1 = healthy)

  /// Links whose flow set or capacity changed since the last re-solve.
  std::vector<LinkId> dirty_links_;

  /// Completion-time min-heap (std::push_heap/pop_heap on a vector so
  /// compact_heap can filter in place).
  std::vector<HeapEntry> heap_;

  /// Scratch for the solver (persists across calls so a solve allocates
  /// nothing once warm).
  std::uint64_t solve_gen_ = 0;
  /// The component's shared links; each round drops those with no
  /// unfrozen flow left.
  std::vector<LinkId> comp_links_;
  /// The component's unfrozen flows that have a private cap.
  std::vector<std::uint32_t> cap_slots_;
  /// Links at the current round's share, and flows whose cap equals it.
  std::vector<LinkId> min_links_;
  std::vector<std::uint32_t> min_slots_;
  /// Flows whose rate changed in the current solve — the only ones whose
  /// heap projections need refreshing afterwards.
  std::vector<std::uint32_t> changed_slots_;

  /// Scratch for next_event's walk of the heap window: indices of heap
  /// entries still to visit.
  std::vector<std::size_t> window_stack_;

  /// Memoized next_event() answer: the kernel peeks the next completion
  /// on every scheduling iteration, but the answer can only change when
  /// time advances or rates are re-solved (both clear the flag).
  bool next_cache_valid_ = false;
  std::optional<util::SimTime> next_cache_;

  util::SimTime now_ = 0;
  bool rates_dirty_ = false;
  FlowId next_id_ = 0;
  NetworkStats stats_;
};

}  // namespace cm5::net
