#include <algorithm>
#include <cmath>
#include <limits>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "harness.hpp"

namespace cm5bench {

FlowLog flow_log(const std::vector<sim::TraceEvent>& events) {
  using Kind = sim::TraceEvent::Kind;
  FlowLog log;
  for (const sim::TraceEvent& e : events) {
    if (e.kind == Kind::TransferStart) {
      log.inputs.push_back(
          {FlowEvent::Kind::kStart, e.time, e.node, e.peer, e.bytes});
    } else if (e.kind == Kind::FaultDegrade) {
      log.inputs.push_back(
          {FlowEvent::Kind::kDegrade, e.time, e.node, -1, e.bytes});
    } else if (e.kind == Kind::TransferComplete) {
      log.completions.push_back({e.time, e.node, e.peer});
    }
  }
  return log;
}

// The kernel's scheduling loop (Kernel::schedule_next) peeks
// next_event() once per iteration and processes one event: a flow start
// wins a tie with a fluid completion, a completion wins a tie with a
// timed fault. Reproducing that call sequence reproduces the network's
// solves, heap traffic and completion times exactly.
ReplayResult replay(const machine::MachineParams& params, const FlowLog& log,
                    bool probe_rates) {
  const net::FatTreeTopology topo(params.tree);
  net::FluidNetwork network(topo);
  ReplayResult r;

  std::vector<net::NodeId> src_of;
  std::vector<net::NodeId> dst_of;
  std::vector<net::FlowId> active;  // probe only
  std::vector<double> last_rate;    // probe only, by FlowId

  const auto note_solves = [&](std::int64_t before, std::size_t active_now) {
    if (network.stats().rate_solves != before) {
      r.active_at_solves += static_cast<std::int64_t>(active_now) *
                            (network.stats().rate_solves - before);
    }
  };

  std::size_t next_input = 0;
  std::size_t next_done = 0;
  for (;;) {
    std::int64_t solves = network.stats().rate_solves;
    const std::optional<util::SimTime> done_at = network.next_event();
    note_solves(solves, network.active_flows());
    if (probe_rates && network.stats().rate_solves != solves) {
      for (const net::FlowId id : active) {
        const double rate = network.flow_rate(id);
        const double prev = last_rate[static_cast<std::size_t>(id)];
        if (std::isnan(prev) || rate != prev) ++r.changed;
        last_rate[static_cast<std::size_t>(id)] = rate;
      }
      r.probed_active += static_cast<std::int64_t>(active.size());
    }

    const bool have_input = next_input < log.inputs.size();
    const FlowEvent* in = have_input ? &log.inputs[next_input] : nullptr;
    if (done_at &&
        (in == nullptr || *done_at < in->time ||
         (*done_at == in->time && in->kind == FlowEvent::Kind::kDegrade))) {
      solves = network.stats().rate_solves;
      const std::size_t active_before = network.active_flows();
      const std::vector<net::FlowId> done = network.advance_to(*done_at);
      note_solves(solves, active_before);
      for (const net::FlowId id : done) {
        const auto i = static_cast<std::size_t>(id);
        if (next_done >= log.completions.size()) {
          r.mismatch = "replay completes more flows than the run";
          return r;
        }
        const Completion& want = log.completions[next_done++];
        if (want.time != *done_at || want.src != src_of[i] ||
            want.dst != dst_of[i]) {
          r.mismatch = "completion " + std::to_string(next_done - 1) + ": " +
                       std::to_string(src_of[i]) + "->" +
                       std::to_string(dst_of[i]) + " at t=" +
                       std::to_string(*done_at) + " ns, run had " +
                       std::to_string(want.src) + "->" +
                       std::to_string(want.dst) + " at t=" +
                       std::to_string(want.time) + " ns";
          return r;
        }
      }
      if (probe_rates) {
        std::erase_if(active, [&done](net::FlowId id) {
          return std::binary_search(done.begin(), done.end(), id);
        });
      }
      continue;
    }
    if (in == nullptr) break;
    ++next_input;
    solves = network.stats().rate_solves;
    const std::size_t active_before = network.active_flows();
    if (in->kind == FlowEvent::Kind::kStart) {
      const net::FlowId id = network.start_flow(
          in->time, in->node, in->peer,
          static_cast<double>(params.wire_bytes(in->bytes)));
      src_of.push_back(in->node);
      dst_of.push_back(in->peer);
      if (probe_rates) {
        active.push_back(id);
        last_rate.push_back(std::numeric_limits<double>::quiet_NaN());
      }
    } else {
      const double scale = static_cast<double>(in->bytes) / 1e6;
      network.set_link_capacity_scale(in->time, topo.inject_link(in->node),
                                      scale);
      network.set_link_capacity_scale(in->time, topo.eject_link(in->node),
                                      scale);
    }
    note_solves(solves, active_before);
  }
  if (next_done != log.completions.size()) {
    r.mismatch = "replay completed " + std::to_string(next_done) + " of " +
                 std::to_string(log.completions.size()) + " flows";
  }
  r.rate_solves = network.stats().rate_solves;
  r.heap_pops = network.stats().heap_pops;
  r.flows = network.stats().flows_started;
  return r;
}

}  // namespace cm5bench
