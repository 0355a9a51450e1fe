#include "cm5/net/fluid_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cm5/net/maxmin.hpp"
#include "cm5/util/check.hpp"

namespace cm5::net {
namespace {

/// Residual below which a flow counts as complete; far below one packet.
constexpr double kDoneEpsilonBytes = 1e-6;

/// Sentinel for Slot::heap_time: no outstanding heap entry.
constexpr util::SimTime kNoHeapEntry = -1;

/// Maximum divergence (ns) between a cached heap projection and a fresh
/// recompute of the same completion instant. Both describe the same
/// real-valued time; they differ only by ceil discretization of the two
/// anchor points (≤ 1 ns each) plus sub-ns float error. next_event
/// reprojects everything within 2x this slack of the heap top fresh from
/// now_, which keeps returned event times identical to a full O(F)
/// rescan.
constexpr util::SimTime kProjectionSlackNs = 2;

}  // namespace

FluidNetwork::FluidNetwork(const FatTreeTopology& topo) : topo_(topo) {
  const auto num_links = static_cast<std::size_t>(topo_.num_links());
  stats_.bytes_by_level.assign(static_cast<std::size_t>(topo_.levels()) + 1, 0.0);
  stats_.bytes_by_link.assign(num_links, 0.0);
  stats_.link_busy_seconds.assign(num_links, 0.0);
  links_.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    links_[l].capacity =
        capacity_units(topo_.link(static_cast<LinkId>(l)).capacity);
  }
  capacity_scale_.assign(num_links, 1.0);
}

void FluidNetwork::mark_dirty(LinkId l) {
  auto& dirty = links_[static_cast<std::size_t>(l)].dirty;
  if (!dirty) {
    dirty = true;
    dirty_links_.push_back(l);
  }
}

void FluidNetwork::set_link_capacity_scale(util::SimTime now, LinkId link,
                                           double scale) {
  CM5_CHECK_MSG(now >= now_, "time must not go backwards");
  CM5_CHECK_MSG(link >= 0 && link < topo_.num_links(), "bad link id");
  CM5_CHECK_MSG(scale >= 0.0, "capacity scale must be non-negative");
  if (rates_dirty_) resolve_rates();
  progress_to(now);
  const auto l = static_cast<std::size_t>(link);
  capacity_scale_[l] = scale;
  links_[l].capacity = capacity_units(topo_.link(link).capacity, scale);
  mark_dirty(link);
  rates_dirty_ = true;
}

double FluidNetwork::link_capacity_scale(LinkId link) const {
  return capacity_scale_[static_cast<std::size_t>(link)];
}

void FluidNetwork::progress_to(util::SimTime t) {
  const double dt = util::to_seconds(t - now_);
  if (dt > 0.0) {
    next_cache_valid_ = false;
    if (rates_dirty_) resolve_rates();
    for (const std::uint32_t si : active_slots_) {
      Slot& f = slots_[si];
      f.bytes_remaining = std::max(0.0, f.bytes_remaining - f.rate * dt);
    }
    // Only links on a live flow's route can carry load, and rates were
    // just resolved above if anything was dirty.
    for (const LinkId link : live_links_) {
      const LinkState& ls = links_[static_cast<std::size_t>(link)];
      // A link with no load carries no fluid; that includes a stalled
      // link (capacity scaled to 0), which is idle, not saturated.
      if (ls.load <= 0) continue;
      stats_.link_busy_seconds[static_cast<std::size_t>(link)] +=
          dt * std::min(1.0, static_cast<double>(ls.load) /
                                 static_cast<double>(ls.capacity));
    }
  }
  now_ = t;
}

FlowId FluidNetwork::start_flow(util::SimTime now, NodeId src, NodeId dst,
                                double wire_bytes) {
  CM5_CHECK_MSG(now >= now_, "time must not go backwards");
  CM5_CHECK_MSG(src != dst, "flows to self never touch the network");
  CM5_CHECK(wire_bytes >= 0.0);

  // Progress existing flows to `now` (without harvesting completions;
  // the kernel harvests them via advance_to, which it is contractually
  // obliged to call for any completion earlier than `now`).
  progress_to(now);

  const FlowId id = next_id_++;
  std::uint32_t si;
  if (!free_slots_.empty()) {
    si = free_slots_.back();
    free_slots_.pop_back();
  } else {
    si = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& f = slots_[si];
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.bytes_remaining = wire_bytes;
  f.rate_units = 0;
  f.rate = 0.0;
  f.route_len = static_cast<std::uint8_t>(
      topo_.route_into(src, dst, f.route_links.data()));
  f.heap_time = kNoHeapEntry;
  f.live = true;
  f.active_pos = static_cast<std::uint32_t>(active_slots_.size());
  active_slots_.push_back(si);

  rates_dirty_ = true;
  ++stats_.flows_started;
  for (std::uint32_t h = 0; h < f.route_len; ++h) {
    const LinkId l = f.route_links[h];
    LinkState& ls = links_[static_cast<std::size_t>(l)];
    if (ls.flows.empty()) {
      ls.live_pos = static_cast<std::uint32_t>(live_links_.size());
      live_links_.push_back(l);
    }
    f.link_pos[h] = static_cast<std::uint32_t>(ls.flows.size());
    ls.flows.push_back({si, h});
    mark_dirty(l);
    stats_.bytes_by_link[static_cast<std::size_t>(l)] += wire_bytes;
    stats_.bytes_by_level[static_cast<std::size_t>(topo_.link_level(l))] +=
        wire_bytes;
  }
  return id;
}

bool FluidNetwork::heap_entry_valid(const HeapEntry& e) const {
  const Slot& f = slots_[e.slot];
  return f.live && f.id == e.id && f.epoch == e.epoch;
}

util::SimTime FluidNetwork::projection(const Slot& f) const {
  return f.bytes_remaining <= kDoneEpsilonBytes
             ? now_
             : now_ + util::transfer_time(f.bytes_remaining, f.rate);
}

void FluidNetwork::refresh_heap_entry(std::uint32_t si) {
  Slot& f = slots_[si];
  if (f.rate <= 0.0 && f.bytes_remaining > kDoneEpsilonBytes) {
    // Fully blocked flow: no projected completion. Invalidate any
    // outstanding entry so the heap reflects "cannot finish".
    if (f.heap_time != kNoHeapEntry) {
      ++f.epoch;
      f.heap_time = kNoHeapEntry;
    }
    return;
  }
  const util::SimTime t = projection(f);
  if (f.heap_time == t) return;  // outstanding entry is already right
  ++f.epoch;
  f.heap_time = t;
  heap_.push_back(HeapEntry{t, f.id, si, f.epoch});
  std::push_heap(heap_.begin(), heap_.end(), heap_later);
}

void FluidNetwork::compact_heap() {
  if (heap_.size() <= 64 || heap_.size() <= 4 * active_slots_.size() + 64) {
    return;
  }
  std::erase_if(heap_,
                [this](const HeapEntry& e) { return !heap_entry_valid(e); });
  std::make_heap(heap_.begin(), heap_.end(), heap_later);
}

void FluidNetwork::reach_link(LinkId l) {
  LinkState& ls = links_[static_cast<std::size_t>(l)];
  if (ls.gen == solve_gen_) return;
  ls.gen = solve_gen_;
  ls.residual = ls.capacity;
  ls.unfrozen = static_cast<std::int64_t>(ls.flows.size());
  ls.share = -1;
  comp_links_.push_back(l);
}

bool FluidNetwork::collect_flow(std::uint32_t si) {
  Slot& f = slots_[si];
  if (f.visit_gen == solve_gen_) return false;
  f.visit_gen = solve_gen_;
  f.frozen = false;
  // A link that carries only this flow never couples it to another: its
  // share stays floor(capacity / 1) until the flow freezes, so the flow
  // takes the least such capacity as a cap of its own instead.
  RateUnits cap = kUnboundedRate;
  for (const LinkId l : f.route()) {
    const LinkState& ls = links_[static_cast<std::size_t>(l)];
    if (ls.flows.size() == 1) {
      cap = std::min(cap, ls.capacity);
    } else {
      reach_link(l);
    }
  }
  f.private_cap = cap;
  if (cap != kUnboundedRate) cap_slots_.push_back(si);
  return true;
}

void FluidNetwork::freeze(std::uint32_t si, RateUnits share) {
  Slot& f = slots_[si];
  f.frozen = true;
  const RateUnits delta = share - f.rate_units;
  if (delta != 0) {
    f.rate_units = share;
    f.rate = rate_from_units(share);
    changed_slots_.push_back(si);
  }
  for (const LinkId link : f.route()) {
    LinkState& ls = links_[static_cast<std::size_t>(link)];
    ls.load += delta;
    if (ls.gen != solve_gen_) continue;  // private: not being filled
    ls.residual -= share;
    --ls.unfrozen;
    ls.share = -1;
  }
}

void FluidNetwork::resolve_rates() {
  if (!rates_dirty_) return;
  next_cache_valid_ = false;
  // Exact arithmetic makes a component's max-min allocation independent
  // of everything outside it, so only the flows reachable from the
  // dirtied links (link -> its flows -> their links ...) are re-filled;
  // every other flow's rate, link loads and heap entry stay as they are.
  // The walk passes only through shared links: a single-flow link leads
  // back to the flow it was reached from.
  ++solve_gen_;
  comp_links_.clear();
  cap_slots_.clear();
  changed_slots_.clear();
  std::size_t comp_flows = 0;
  for (const LinkId l : dirty_links_) {
    LinkState& ls = links_[static_cast<std::size_t>(l)];
    ls.dirty = false;
    // A link that lost its last flow needs nothing: retiring the flow
    // already took its rate off the load.
    if (ls.flows.size() == 1) {
      if (collect_flow(ls.flows.front().slot)) ++comp_flows;
    } else if (ls.flows.size() > 1) {
      reach_link(l);
    }
  }
  dirty_links_.clear();
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    for (const LinkEntry e :
         links_[static_cast<std::size_t>(comp_links_[i])].flows) {
      if (collect_flow(e.slot)) ++comp_flows;
    }
  }
  stats_.flows_refilled += static_cast<std::int64_t>(comp_flows);
  stats_.links_refilled += static_cast<std::int64_t>(comp_links_.size());

  // Progressive filling over the component. A private cap stands for
  // its links' shares, so the round minimum, the links and flows at it,
  // and every share are those of filling all the component's links.
  std::size_t unfrozen = comp_flows;
  while (unfrozen > 0) {
    // The round's share is the minimum over shared links with unfrozen
    // flows and the caps of unfrozen flows; collect the links and flows
    // exactly at it, dropping the links and flows with nothing left.
    RateUnits share = std::numeric_limits<RateUnits>::max();
    min_links_.clear();
    min_slots_.clear();
    std::size_t kept = 0;
    for (const LinkId link : comp_links_) {
      LinkState& ls = links_[static_cast<std::size_t>(link)];
      if (ls.unfrozen == 0) continue;
      comp_links_[kept++] = link;
      if (ls.share < 0) ls.share = ls.residual / ls.unfrozen;
      if (ls.share < share) {
        share = ls.share;
        min_links_.clear();
      }
      if (ls.share == share) min_links_.push_back(link);
    }
    comp_links_.resize(kept);
    kept = 0;
    for (const std::uint32_t si : cap_slots_) {
      const Slot& f = slots_[si];
      if (f.frozen) continue;
      cap_slots_[kept++] = si;
      if (f.private_cap < share) {
        share = f.private_cap;
        min_links_.clear();
        min_slots_.clear();
      }
      if (f.private_cap == share) min_slots_.push_back(si);
    }
    cap_slots_.resize(kept);
    CM5_CHECK_MSG(!min_links_.empty() || !min_slots_.empty(),
                  "unfrozen flow with no active link");
    // Freeze every unfrozen flow on those links, and those flows.
    // Freezing at `share` never drops another link's share to `share`,
    // so the set frozen this round, and every integer update, is
    // order-independent.
    for (const LinkId link : min_links_) {
      for (const LinkEntry e : links_[static_cast<std::size_t>(link)].flows) {
        if (slots_[e.slot].frozen) continue;
        freeze(e.slot, share);
        --unfrozen;
      }
    }
    for (const std::uint32_t si : min_slots_) {
      if (slots_[si].frozen) continue;
      freeze(si, share);
      --unfrozen;
    }
  }

  // Refresh projections only for flows whose rate actually changed.
  // A flow whose rate is unchanged progressed linearly at that rate
  // since its entry was pushed, so the cached projection still describes
  // the same real-valued completion instant and stays within
  // kProjectionSlackNs of a fresh one — exactly the invariant
  // next_event()'s reprojection window is built on.
  for (const std::uint32_t si : changed_slots_) refresh_heap_entry(si);
  compact_heap();
  rates_dirty_ = false;
  ++stats_.rate_solves;
}

std::optional<util::SimTime> FluidNetwork::next_event() {
  if (active_slots_.empty()) return std::nullopt;
  resolve_rates();
  // The kernel peeks this on every scheduling iteration; the answer can
  // only change when time advances or rates are re-solved.
  if (next_cache_valid_) return next_cache_;
  // The contract (inherited from the pre-heap implementation, and relied
  // on for bitwise reproducibility) is that the returned time equals
  //   min over active flows of: now_ + transfer_time(bytes_remaining, rate)
  // computed *fresh at this call*. A cached heap projection was ceil()ed
  // at an earlier now_ with larger bytes_remaining; it describes the same
  // real-valued completion instant but its rounding can land within
  // kProjectionSlackNs of the fresh value on either side. So: visit
  // every valid entry whose cached time is within 2x that slack of the
  // top and return the least fresh projection among them. No entry
  // outside the window can beat it, because cached and fresh times
  // differ by at most the slack. The window is read in place: no entry
  // in a subtree of the heap is earlier than the subtree's root, so the
  // walk stops at the first entry past the window on every path, and
  // nothing is popped or re-pushed.
  while (!heap_.empty() && !heap_entry_valid(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_later);
    heap_.pop_back();
    ++stats_.heap_pops;
  }
  next_cache_valid_ = true;
  if (heap_.empty()) {
    // Every active flow is blocked on a stalled link; nothing can finish.
    next_cache_ = std::nullopt;
    return next_cache_;
  }
  const util::SimTime window_end = heap_.front().time + 2 * kProjectionSlackNs;
  util::SimTime best = util::kTimeNever;
  window_stack_.assign(1, 0);
  while (!window_stack_.empty()) {
    const std::size_t i = window_stack_.back();
    window_stack_.pop_back();
    const HeapEntry& e = heap_[i];
    if (e.time > window_end) continue;  // and so is all of its subtree
    // A valid entry's flow is done or has a positive rate: a rate that
    // drops to zero invalidates the entry (refresh_heap_entry).
    if (heap_entry_valid(e)) best = std::min(best, projection(slots_[e.slot]));
    for (const std::size_t child : {2 * i + 1, 2 * i + 2}) {
      if (child < heap_.size()) window_stack_.push_back(child);
    }
  }
  next_cache_ = best;
  return next_cache_;
}

void FluidNetwork::retire_slot(std::uint32_t si) {
  Slot& f = slots_[si];
  for (std::uint32_t h = 0; h < f.route_len; ++h) {
    const LinkId l = f.route_links[h];
    LinkState& ls = links_[static_cast<std::size_t>(l)];
    ls.load -= f.rate_units;
    // Swap-remove: the last entry takes this flow's place.
    const std::uint32_t pos = f.link_pos[h];
    const LinkEntry moved = ls.flows.back();
    ls.flows[pos] = moved;
    slots_[moved.slot].link_pos[moved.hop] = pos;
    ls.flows.pop_back();
    if (ls.flows.empty()) {
      const LinkId last = live_links_.back();
      live_links_[ls.live_pos] = last;
      links_[static_cast<std::size_t>(last)].live_pos = ls.live_pos;
      live_links_.pop_back();
    }
    mark_dirty(l);
  }
  f.live = false;
  ++f.epoch;  // invalidate any outstanding heap entry
  f.heap_time = kNoHeapEntry;
  const std::uint32_t last = active_slots_.back();
  active_slots_[f.active_pos] = last;
  slots_[last].active_pos = f.active_pos;
  active_slots_.pop_back();
  free_slots_.push_back(si);
}

std::vector<FlowId> FluidNetwork::advance_to(util::SimTime t) {
  CM5_CHECK_MSG(t >= now_, "time must not go backwards");
  resolve_rates();
  progress_to(t);

  std::vector<FlowId> done;
  for (std::uint32_t si = 0; si < slots_.size(); ++si) {
    const Slot& f = slots_[si];
    if (f.live && f.bytes_remaining <= kDoneEpsilonBytes) {
      done.push_back(f.id);
      retire_slot(si);
    }
  }
  if (!done.empty()) {
    std::sort(done.begin(), done.end());
    stats_.flows_completed += static_cast<std::int64_t>(done.size());
    rates_dirty_ = true;
  }
  return done;
}

double FluidNetwork::flow_rate(FlowId id) {
  resolve_rates();
  for (const Slot& f : slots_) {
    if (f.live && f.id == id) return f.rate;
  }
  CM5_CHECK_MSG(false, "flow_rate on a flow that is not active");
  return 0.0;
}

}  // namespace cm5::net
