#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/net/fluid_network.hpp"
#include "cm5/net/maxmin.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/coloring.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/rng.hpp"

/// Randomized stress tests: generate random-but-valid communication
/// programs and verify the kernel's global invariants — no deadlock, all
/// traffic delivered, deterministic timing — across many seeds. These
/// hunt for rendezvous-matching and event-ordering bugs that the
/// structured tests cannot reach.

namespace cm5 {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomScheduleExecutesAndDelivers) {
  // A random pattern scheduled by every builder must execute without
  // deadlock and move exactly pattern.num_messages() messages.
  util::Rng rng(GetParam());
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(1, 5));
  const double density = 0.05 + rng.next_double() * 0.9;
  const auto bytes = rng.next_in(1, 4096);
  const auto pattern = patterns::random_density(nprocs, density, bytes,
                                                GetParam() * 31 + 7);
  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    const auto r = run_scheduled_pattern(m, scheduler, pattern);
    EXPECT_EQ(r.network.flows_completed, pattern.num_messages())
        << sched::scheduler_name(scheduler) << " nprocs=" << nprocs;
  }
  // The colouring scheduler too (it is not in the Scheduler enum).
  const auto schedule = sched::build_coloring(pattern);
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  const auto r = m.run(
      [&](Node& node) { sched::execute_schedule(node, schedule); });
  EXPECT_EQ(r.network.flows_completed, pattern.num_messages());
}

TEST_P(FuzzTest, RandomPairedTrafficDeliversPayloadsIntact) {
  // Random sequence of matched point-to-point messages with payload
  // checksums: every byte must arrive unmodified and in FIFO order per
  // (src, dst, tag).
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  util::Rng rng(seed);

  // Plan: `rounds` rounds; in each round a random permutation pairs
  // senders and receivers.
  struct PlannedMessage {
    machine::NodeId src;
    machine::NodeId dst;
    std::int32_t bytes;
  };
  std::vector<std::vector<PlannedMessage>> by_round;
  for (int round = 0; round < 20; ++round) {
    std::vector<machine::NodeId> perm(static_cast<std::size_t>(nprocs));
    for (std::int32_t i = 0; i < nprocs; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    std::vector<PlannedMessage> round_messages;
    for (std::int32_t i = 0; i < nprocs; ++i) {
      const machine::NodeId dst = perm[static_cast<std::size_t>(i)];
      if (dst == i) continue;
      round_messages.push_back(PlannedMessage{
          i, dst, static_cast<std::int32_t>(rng.next_in(1, 2000))});
    }
    by_round.push_back(std::move(round_messages));
  }

  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.run([&](Node& node) {
    for (std::size_t round = 0; round < by_round.size(); ++round) {
      const auto tag = static_cast<std::int32_t>(round);
      for (const PlannedMessage& pm : by_round[round]) {
        if (pm.src == node.self()) {
          std::vector<std::byte> payload(static_cast<std::size_t>(pm.bytes));
          for (std::size_t k = 0; k < payload.size(); ++k) {
            payload[k] = static_cast<std::byte>(
                (pm.src * 7 + pm.dst * 13 + static_cast<std::int32_t>(k)) % 256);
          }
          node.send_block_data(pm.dst, payload, tag);
        } else if (pm.dst == node.self()) {
          const machine::Message msg = node.receive_block(pm.src, tag);
          ASSERT_EQ(msg.size, pm.bytes);
          for (std::size_t k = 0; k < msg.data.size(); ++k) {
            ASSERT_EQ(msg.data[k],
                      static_cast<std::byte>(
                          (pm.src * 7 + pm.dst * 13 +
                           static_cast<std::int32_t>(k)) %
                          256));
          }
        }
      }
    }
  });
}

TEST_P(FuzzTest, MixedPrimitivesAreDeterministic) {
  // Random mix of compute, barriers, reductions and ring traffic —
  // identical timing across two executions.
  const std::uint64_t seed = GetParam();
  auto one_run = [&] {
    Cm5Machine m(MachineParams::cm5_defaults(8));
    return m.run([&](Node& node) {
      util::Rng rng = util::Rng::forked(seed, static_cast<std::uint64_t>(node.self()));
      for (int op = 0; op < 30; ++op) {
        // All nodes draw from different streams but the *shared* ops
        // (barrier cadence, ring rounds) are fixed by `op`.
        node.compute(util::from_us(rng.next_in(1, 50)));
        if (op % 5 == 0) node.barrier();
        if (op % 7 == 0) {
          const auto next =
              static_cast<machine::NodeId>((node.self() + 1) % node.nprocs());
          const auto prev = static_cast<machine::NodeId>(
              (node.self() + node.nprocs() - 1) % node.nprocs());
          if (node.self() % 2 == 0) {
            node.send_block(next, rng.next_in(0, 512), 1000 + op);
            (void)node.receive_block(prev, 1000 + op);
          } else {
            (void)node.receive_block(prev, 1000 + op);
            node.send_block(next, rng.next_in(0, 512), 1000 + op);
          }
        }
        if (op % 11 == 0) {
          (void)node.reduce_sum(static_cast<double>(node.self()));
        }
      }
    });
  };
  const auto a = one_run();
  const auto b = one_run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST_P(FuzzTest, TracedRunsSatisfyAllInvariants) {
  // Property test for the metrics layer: over random patterns at the
  // paper's density range (10%..75%) and every scheduler, a traced run
  // must pass sim::validate_trace and conserve messages and bytes
  // between posting and delivery.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 977 + 5);
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
  const double density = 0.10 + rng.next_double() * 0.65;
  const auto bytes = rng.next_in(1, 2048);
  const auto pattern =
      patterns::exact_density(nprocs, density, bytes, seed * 31 + 7);

  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    const sched::ObservedScheduleRun observed =
        sched::run_scheduled_pattern_observed(m, scheduler, pattern);
    EXPECT_TRUE(observed.violations.empty())
        << sched::scheduler_name(scheduler) << " nprocs=" << nprocs
        << " density=" << density;
    for (const std::string& v : observed.violations) ADD_FAILURE() << v;

    const sim::RunMetrics& metrics = observed.metrics;
    EXPECT_EQ(metrics.messages_posted, pattern.num_messages());
    EXPECT_EQ(metrics.transfers_completed, pattern.num_messages());
    EXPECT_EQ(metrics.bytes_posted, pattern.num_messages() * bytes);
    EXPECT_EQ(metrics.bytes_delivered, metrics.bytes_posted);
    EXPECT_EQ(metrics.transfers_dropped, 0);
    EXPECT_EQ(metrics.makespan, observed.result.makespan);
    // The per-node breakdown tiles each node's lifetime exactly.
    for (const sim::NodeTimeBreakdown& n : metrics.nodes) {
      EXPECT_EQ(n.compute + n.total_wait() + n.idle_tail, metrics.makespan)
          << sched::scheduler_name(scheduler) << " node " << n.node;
    }
    // Conservation across the link matrix.
    std::int64_t link_bytes = 0;
    for (const sim::LinkTraffic& l : metrics.links) link_bytes += l.bytes;
    EXPECT_EQ(link_bytes, metrics.bytes_delivered);
  }
}

TEST_P(FuzzTest, FaultyResilientRunsSatisfyRelaxedInvariants) {
  // Same property under fault injection: traces from resilient runs
  // (drops + delays + one fail-stop death on odd seeds) must still pass
  // validate_trace — its completeness checks stand down under faults,
  // but monotonicity, id sanity and makespan consistency never do.
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  const auto pattern = patterns::exact_density(
      nprocs, 0.10 + 0.65 * static_cast<double>(seed % 5) / 4.0, 512,
      seed * 131 + 17);
  const auto schedule = sched::build_schedule(sched::Scheduler::Greedy,
                                              pattern);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.delay_prob = 0.10;
  plan.delay = util::from_us(50);
  if (seed % 2 == 1) {
    plan.deaths.push_back({static_cast<machine::NodeId>(seed % nprocs),
                           util::from_us(300)});
  }

  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.set_fault_plan(plan);
  sim::TraceRecorder recorder;
  sched::ResilientOptions options;
  options.trace = recorder.sink();
  const auto report = sched::run_resilient_schedule(m, schedule, options);

  const auto violations =
      sim::validate_trace(recorder.events(), nprocs, &report.run);
  EXPECT_TRUE(violations.empty()) << "seed " << seed;
  for (const std::string& v : violations) ADD_FAILURE() << v;

  const sim::RunMetrics metrics =
      sim::analyze(recorder, nprocs, &report.run);
  EXPECT_EQ(metrics.makespan, report.run.makespan);
  EXPECT_LE(metrics.bytes_delivered, metrics.bytes_posted);
  EXPECT_GE(report.delivery_rate(), 0.0);
  if (plan.deaths.empty()) {
    // With retries, everything must eventually arrive.
    EXPECT_EQ(report.edges_delivered, report.edges_total) << "seed " << seed;
  }
}

TEST_P(FuzzTest, IncrementalSolverMatchesOracle) {
  // Differential test for the fluid network's incremental max-min solver:
  // drive it through a randomized sequence of flow starts, partial/full
  // advances and link faults (degraded, dead and restored links), and
  // after every operation require each live flow's rate to equal, bit
  // for bit, the reference solve_max_min over the test's own routes and
  // scaled capacities. Each operation is one "case": 12 seeds x 90 ops
  // >= 1000 cases across the suite.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 7919 + 3);
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 6));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork inc(topo);
  std::vector<double> scale(static_cast<std::size_t>(topo.num_links()), 1.0);

  // Flow density varies per seed: bursts are larger for high-density seeds.
  const auto max_burst = 1 + static_cast<std::int32_t>(seed % 5);
  util::SimTime t = 0;
  struct LiveFlow {
    net::FlowId id;
    std::vector<net::LinkId> route;
  };
  std::vector<LiveFlow> live;
  int cases = 0;
  for (int op = 0; op < 90; ++op) {
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 5 || live.empty()) {
      // Start a burst of flows.
      const std::int64_t burst = rng.next_in(1, max_burst);
      for (std::int64_t k = 0; k < burst; ++k) {
        const auto src = static_cast<net::NodeId>(
            rng.next_below(static_cast<std::uint64_t>(nprocs)));
        auto dst = static_cast<net::NodeId>(
            rng.next_below(static_cast<std::uint64_t>(nprocs)));
        if (dst == src) dst = (dst + 1) % nprocs;
        const auto bytes = static_cast<double>(rng.next_in(1, 4096));
        const auto route = topo.route(src, dst);
        live.push_back({inc.start_flow(t, src, dst, bytes),
                        {route.begin(), route.end()}});
      }
    } else if (pick < 8) {
      // Advance to the next completion; half the time stop short of it
      // (partial progress).
      if (const auto ev = inc.next_event()) {
        util::SimTime target = *ev;
        if (rng.next_below(2) == 0 && target > t) {
          target = t + (target - t) / 2;  // partial advance, no completion
        }
        t = target;
        const auto done = inc.advance_to(t);
        ASSERT_TRUE(std::is_sorted(done.begin(), done.end()));
        std::erase_if(live, [&done](const LiveFlow& f) {
          return std::binary_search(done.begin(), done.end(), f.id);
        });
      }
    } else {
      // Fault injection: degrade, kill or restore a random link.
      const auto link = static_cast<net::LinkId>(
          rng.next_below(static_cast<std::uint64_t>(topo.num_links())));
      const double scales[] = {0.0, 0.25, 1.0};
      const double s = scales[rng.next_below(3)];
      inc.set_link_capacity_scale(t, link, s);
      scale[static_cast<std::size_t>(link)] = s;
    }
    std::vector<net::FlowRoute> routes;
    for (const LiveFlow& f : live) routes.push_back(net::FlowRoute{f.route});
    std::vector<net::RateUnits> caps;
    for (net::LinkId l = 0; l < topo.num_links(); ++l) {
      caps.push_back(net::capacity_units(topo.link(l).capacity,
                                         scale[static_cast<std::size_t>(l)]));
    }
    const std::vector<net::RateUnits> want = net::solve_max_min(routes, caps);
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(inc.flow_rate(live[i].id), net::rate_from_units(want[i]))
          << "seed " << seed << " op " << op << " flow " << live[i].id;
    }
    ++cases;
  }
  EXPECT_GE(cases, 90);
  EXPECT_EQ(inc.stats().flows_completed + static_cast<std::int64_t>(live.size()),
            inc.stats().flows_started);
}

TEST_P(FuzzTest, CheckpointKillResumeIsBitIdentical) {
  // Checkpoint/kill/resume fuzz: run a faulty resilient schedule to
  // completion, then for *every* step boundary kill a fresh run right
  // after that step's agreement, capture the checkpoint it emitted, and
  // resume a third run from it. The resumed run's report must match the
  // uninterrupted run's JSON byte for byte — deterministic replay with a
  // verified digest chain, not approximate recovery.
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  const auto pattern = patterns::exact_density(
      nprocs, 0.2 + 0.5 * static_cast<double>(seed % 4) / 3.0, 256,
      seed * 719 + 3);

  sim::FaultPlan plan;
  plan.seed = seed * 13 + 1;
  plan.drop_prob = 0.04;
  plan.corrupt_prob = 0.02;
  if (seed % 3 == 0) {
    plan.deaths.push_back({static_cast<machine::NodeId>(seed % nprocs),
                           util::from_us(1500)});
  }

  for (const auto scheduler :
       {sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    const auto schedule = sched::build_schedule(scheduler, pattern);
    sched::ResilientOptions options;
    options.measure_fault_free_baseline = false;

    Cm5Machine full_machine(MachineParams::cm5_defaults(nprocs));
    full_machine.set_fault_plan(plan);
    const auto full =
        sched::run_resilient_schedule(full_machine, schedule, options);
    const std::string want = full.to_json().dump();

    for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
      std::shared_ptr<const sched::ResilientCheckpoint> token;
      sched::ResilientOptions stop = options;
      stop.stop_after_step = step;
      stop.checkpoint_sink = [&](const sched::ResilientCheckpoint& cp) {
        token = std::make_shared<sched::ResilientCheckpoint>(cp);
      };
      Cm5Machine stop_machine(MachineParams::cm5_defaults(nprocs));
      stop_machine.set_fault_plan(plan);
      const auto partial =
          sched::run_resilient_schedule(stop_machine, schedule, stop);
      ASSERT_NE(token, nullptr)
          << sched::scheduler_name(scheduler) << " seed " << seed
          << " step " << step;
      EXPECT_EQ(partial.steps_completed, step + 1);
      EXPECT_EQ(token->steps_completed, step + 1);

      sched::ResilientOptions resume = options;
      resume.resume_from = token;
      Cm5Machine resume_machine(MachineParams::cm5_defaults(nprocs));
      resume_machine.set_fault_plan(plan);
      const auto resumed =
          sched::run_resilient_schedule(resume_machine, schedule, resume);
      EXPECT_EQ(resumed.to_json().dump(), want)
          << sched::scheduler_name(scheduler) << " seed " << seed
          << " killed after step " << step;
    }
  }
}

// --- fiber-vs-thread execution backend differential ------------------------
//
// The two execution backends must drive byte-identical simulations: same
// trace event stream (order included), same per-node finish times and
// counters, same network statistics. Each compared fiber/thread run pair
// is one case: 12 seeds x (28 + 28 + 28) pairs >= 1000 cases across the
// suite, fault-injected runs included. (Under TSAN builds fibers are
// pinned to threads and the comparison degenerates to thread-vs-thread;
// the real differential runs in the default and ASAN configurations.)

struct BackendCapture {
  std::vector<sim::TraceEvent> events;
  sim::RunResult result;
};

BackendCapture capture_run(sim::ExecutionModel model, std::int32_t nprocs,
                           const std::optional<sim::FaultPlan>& plan,
                           const machine::Program& program) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.set_execution_model(model);
  if (plan) m.set_fault_plan(*plan);
  sim::TraceRecorder recorder;
  BackendCapture out;
  out.result = m.run_traced(program, recorder.sink());
  out.events = recorder.events();
  return out;
}

/// Core of every differential: two captures must describe byte-identical
/// simulations — same event stream, same per-node results, same network
/// stats. Host-side perf fields (context_switches, lanes,
/// speculative_grants) are deliberately NOT compared: they describe the
/// mechanism, not the simulation.
void expect_captures_identical(const BackendCapture& a_cap,
                               const BackendCapture& b_cap,
                               const std::string& a_name,
                               const std::string& b_name,
                               const std::string& what) {
  ASSERT_EQ(a_cap.events.size(), b_cap.events.size()) << what;
  for (std::size_t i = 0; i < a_cap.events.size(); ++i) {
    const sim::TraceEvent& a = a_cap.events[i];
    const sim::TraceEvent& b = b_cap.events[i];
    ASSERT_TRUE(a.kind == b.kind && a.time == b.time && a.node == b.node &&
                a.peer == b.peer && a.bytes == b.bytes && a.tag == b.tag)
        << what << " diverges at event " << i << ":\n  " << a_name << ": "
        << sim::to_string(a) << "\n  " << b_name << ": " << sim::to_string(b);
  }
  EXPECT_EQ(a_cap.result.makespan, b_cap.result.makespan) << what;
  EXPECT_EQ(a_cap.result.finish_time, b_cap.result.finish_time) << what;
  ASSERT_EQ(a_cap.result.node_counters.size(),
            b_cap.result.node_counters.size());
  for (std::size_t i = 0; i < a_cap.result.node_counters.size(); ++i) {
    const sim::NodeCounters& a = a_cap.result.node_counters[i];
    const sim::NodeCounters& b = b_cap.result.node_counters[i];
    EXPECT_EQ(a.sends, b.sends) << what << " node " << i;
    EXPECT_EQ(a.receives, b.receives) << what << " node " << i;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << what << " node " << i;
    EXPECT_EQ(a.global_ops, b.global_ops) << what << " node " << i;
    EXPECT_EQ(a.compute_time, b.compute_time) << what << " node " << i;
  }
  EXPECT_EQ(a_cap.result.network.flows_started,
            b_cap.result.network.flows_started)
      << what;
  EXPECT_EQ(a_cap.result.network.flows_completed,
            b_cap.result.network.flows_completed)
      << what;
  EXPECT_EQ(a_cap.result.network.bytes_by_level,
            b_cap.result.network.bytes_by_level)
      << what;
}

void expect_backends_identical(const BackendCapture& fib,
                               const BackendCapture& thr,
                               const std::string& what) {
  if (!sim::execution_model_pinned_to_threads()) {
    EXPECT_EQ(fib.result.exec_model, sim::ExecutionModel::kFibers) << what;
    EXPECT_EQ(thr.result.exec_model, sim::ExecutionModel::kThreads) << what;
  }
  expect_captures_identical(fib, thr, "fibers ", "threads", what);
}

void compare_backends(std::int32_t nprocs,
                      const std::optional<sim::FaultPlan>& plan,
                      const machine::Program& program,
                      const std::string& what) {
  const BackendCapture fib =
      capture_run(sim::ExecutionModel::kFibers, nprocs, plan, program);
  const BackendCapture thr =
      capture_run(sim::ExecutionModel::kThreads, nprocs, plan, program);
  expect_backends_identical(fib, thr, what);
}

TEST_P(FuzzTest, BackendDifferentialSchedulesAgree) {
  // 28 pairs per seed: 7 random patterns x 4 schedulers, clean runs.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 6151 + 11);
  for (int variant = 0; variant < 7; ++variant) {
    const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
    const double density = 0.10 + rng.next_double() * 0.6;
    const auto bytes = rng.next_in(1, 2048);
    const auto pattern = patterns::random_density(
        nprocs, density, bytes, seed * 101 + static_cast<std::uint64_t>(variant));
    for (const auto scheduler :
         {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
          sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
      const auto schedule = sched::build_schedule(scheduler, pattern);
      compare_backends(
          nprocs, std::nullopt,
          [&](Node& node) { sched::execute_schedule(node, schedule); },
          "seed " + std::to_string(seed) + " variant " +
              std::to_string(variant) + " " +
              std::string(sched::scheduler_name(scheduler)));
    }
  }
}

TEST_P(FuzzTest, BackendDifferentialPrimitiveSoupAgrees) {
  // 28 pairs per seed: random programs exercising every blocking
  // primitive — compute, barriers, timed barriers, reductions, swaps,
  // async sends with drains, and timed receives that really expire.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 28; ++variant) {
    util::Rng shape(seed * 409 + static_cast<std::uint64_t>(variant));
    const auto nprocs = static_cast<std::int32_t>(1 << shape.next_in(1, 4));
    const auto ops = static_cast<int>(shape.next_in(8, 24));
    const auto mix =
        static_cast<std::uint64_t>(shape.next_in(0, std::int64_t{1} << 30));
    const auto program = [&, nprocs, ops, mix](Node& node) {
      util::Rng rng = util::Rng::forked(
          seed * 31 + static_cast<std::uint64_t>(mix),
          static_cast<std::uint64_t>(node.self()));
      const auto next =
          static_cast<machine::NodeId>((node.self() + 1) % nprocs);
      const auto prev = static_cast<machine::NodeId>(
          (node.self() + nprocs - 1) % nprocs);
      for (int op = 0; op < ops; ++op) {
        node.compute(util::from_us(rng.next_in(1, 40)));
        switch ((static_cast<std::uint64_t>(op) + mix) % 6) {
          case 0:
            node.barrier();
            break;
          case 1:
            // Ring exchange; odd/even phasing avoids rendezvous deadlock.
            if (node.self() % 2 == 0) {
              node.send_block(next, rng.next_in(0, 512), 100 + op);
              (void)node.receive_block(prev, 100 + op);
            } else {
              (void)node.receive_block(prev, 100 + op);
              node.send_block(next, rng.next_in(0, 512), 100 + op);
            }
            break;
          case 2:
            (void)node.swap_block(node.self() % 2 == 0 ? next : prev,
                                  rng.next_in(1, 1024), 200 + op);
            break;
          case 3:
            node.send_async(next, rng.next_in(0, 256), 300 + op);
            (void)node.receive_block(prev, 300 + op);
            node.wait_sends();
            break;
          case 4:
            // Nothing was sent with this tag: the timed receive must
            // expire on both backends at exactly the same instant.
            EXPECT_FALSE(
                node.receive_timeout(prev, 9999, util::from_us(25)));
            break;
          default:
            (void)node.reduce_sum(static_cast<double>(node.self() + op));
            break;
        }
      }
      // A timed barrier everyone but node 0 joins. Node 0 computes far
      // past every deadline first, so the timed barrier deterministically
      // expires and each participant withdraws before node 0's final
      // barrier arrival could complete the pending generation.
      if (node.self() == 0) {
        node.compute(util::from_ms(50));
      } else {
        EXPECT_FALSE(node.try_barrier(util::from_us(10)));
      }
      node.barrier();
    };
    compare_backends(nprocs, std::nullopt, program,
                     "seed " + std::to_string(seed) + " soup " +
                         std::to_string(variant));
  }
}

TEST_P(FuzzTest, BackendDifferentialFaultyRunsAgree) {
  // 28 pairs per seed under fault injection: drops, delays, degrades and
  // fail-stop deaths, executed through the resilient executor's timed
  // retry loop. The fail-stop unwind exercises the backends' release-
  // everyone abort path.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 28; ++variant) {
    util::Rng shape(seed * 1543 + static_cast<std::uint64_t>(variant) * 7);
    const std::int32_t nprocs = 8;
    const auto pattern = patterns::exact_density(
        nprocs, 0.15 + 0.5 * shape.next_double(), 256,
        seed * 977 + static_cast<std::uint64_t>(variant));
    const auto schedule =
        sched::build_schedule(sched::Scheduler::Greedy, pattern);

    sim::FaultPlan plan;
    plan.seed = seed * 53 + static_cast<std::uint64_t>(variant);
    plan.drop_prob = 0.05 * static_cast<double>(shape.next_in(0, 2));
    plan.delay_prob = 0.10;
    plan.delay = util::from_us(50);
    if (variant % 3 == 1) {
      plan.deaths.push_back(
          {static_cast<machine::NodeId>(shape.next_below(
               static_cast<std::uint64_t>(nprocs))),
           util::from_us(shape.next_in(100, 900))});
    }

    const auto resilient_capture = [&](sim::ExecutionModel model) {
      Cm5Machine m(MachineParams::cm5_defaults(nprocs));
      m.set_execution_model(model);
      m.set_fault_plan(plan);
      sim::TraceRecorder recorder;
      sched::ResilientOptions options;
      options.trace = recorder.sink();
      const auto report = sched::run_resilient_schedule(m, schedule, options);
      BackendCapture out;
      out.result = report.run;
      out.events = recorder.events();
      return std::pair(std::move(out), report);
    };
    const auto [fib, fib_report] =
        resilient_capture(sim::ExecutionModel::kFibers);
    const auto [thr, thr_report] =
        resilient_capture(sim::ExecutionModel::kThreads);
    const std::string what =
        "seed " + std::to_string(seed) + " faulty " + std::to_string(variant);
    expect_backends_identical(fib, thr, what);
    EXPECT_EQ(fib_report.edges_delivered, thr_report.edges_delivered) << what;
    EXPECT_EQ(fib_report.edges_total, thr_report.edges_total) << what;
  }
}

// --- lane-count differential ------------------------------------------------
//
// The multi-lane backend promises byte-identical simulations at every
// lane count (docs/MODEL.md "Lane invariance"): the kernel serializes
// token grants and only node user code overlaps. Each battery compares
// lanes in {2, 4} against the single-lane fiber run, over the same
// program families the backend differential uses — schedules, primitive
// soup, faulty resilient runs and checkpoint/resume kill points.

constexpr std::int32_t kLaneCounts[] = {2, 4};

BackendCapture capture_lanes(std::int32_t lanes, std::int32_t nprocs,
                             const std::optional<sim::FaultPlan>& plan,
                             const machine::Program& program) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.set_execution_model(sim::ExecutionModel::kFibers);
  m.set_execution_lanes(lanes);
  if (plan) m.set_fault_plan(*plan);
  sim::TraceRecorder recorder;
  BackendCapture out;
  out.result = m.run_traced(program, recorder.sink());
  out.events = recorder.events();
  return out;
}

void compare_lanes(std::int32_t nprocs,
                   const std::optional<sim::FaultPlan>& plan,
                   const machine::Program& program, const std::string& what) {
  const BackendCapture one =
      capture_run(sim::ExecutionModel::kFibers, nprocs, plan, program);
  for (const std::int32_t lanes : kLaneCounts) {
    const BackendCapture multi = capture_lanes(lanes, nprocs, plan, program);
    EXPECT_EQ(multi.result.exec_model, sim::ExecutionModel::kFibersMultiLane)
        << what;
    EXPECT_EQ(multi.result.lanes, std::min(lanes, nprocs)) << what;
    expect_captures_identical(one, multi, "1 lane ",
                              std::to_string(lanes) + " lanes",
                              what + " lanes=" + std::to_string(lanes));
  }
}

TEST_P(FuzzTest, LaneDifferentialSchedulesAgree) {
  // Random patterns through every scheduler, clean runs.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 3671 + 29);
  for (int variant = 0; variant < 2; ++variant) {
    const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
    const double density = 0.10 + rng.next_double() * 0.6;
    const auto bytes = rng.next_in(1, 2048);
    const auto pattern = patterns::random_density(
        nprocs, density, bytes,
        seed * 607 + static_cast<std::uint64_t>(variant));
    for (const auto scheduler :
         {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
          sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
      const auto schedule = sched::build_schedule(scheduler, pattern);
      compare_lanes(
          nprocs, std::nullopt,
          [&](Node& node) { sched::execute_schedule(node, schedule); },
          "seed " + std::to_string(seed) + " variant " +
              std::to_string(variant) + " " +
              std::string(sched::scheduler_name(scheduler)));
    }
  }
}

TEST_P(FuzzTest, LaneDifferentialPrimitiveSoupAgrees) {
  // Random programs over every blocking primitive, including timed
  // receives and timed barriers that really expire — the paths where a
  // speculated node must not observe its timeout early.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 6; ++variant) {
    util::Rng shape(seed * 829 + static_cast<std::uint64_t>(variant));
    const auto nprocs = static_cast<std::int32_t>(1 << shape.next_in(1, 4));
    const auto ops = static_cast<int>(shape.next_in(8, 24));
    const auto mix =
        static_cast<std::uint64_t>(shape.next_in(0, std::int64_t{1} << 30));
    const auto program = [&, nprocs, ops, mix](Node& node) {
      util::Rng rng = util::Rng::forked(
          seed * 37 + static_cast<std::uint64_t>(mix),
          static_cast<std::uint64_t>(node.self()));
      const auto next =
          static_cast<machine::NodeId>((node.self() + 1) % nprocs);
      const auto prev = static_cast<machine::NodeId>(
          (node.self() + nprocs - 1) % nprocs);
      for (int op = 0; op < ops; ++op) {
        node.compute(util::from_us(rng.next_in(1, 40)));
        switch ((static_cast<std::uint64_t>(op) + mix) % 6) {
          case 0:
            node.barrier();
            break;
          case 1:
            if (node.self() % 2 == 0) {
              node.send_block(next, rng.next_in(0, 512), 100 + op);
              (void)node.receive_block(prev, 100 + op);
            } else {
              (void)node.receive_block(prev, 100 + op);
              node.send_block(next, rng.next_in(0, 512), 100 + op);
            }
            break;
          case 2:
            (void)node.swap_block(node.self() % 2 == 0 ? next : prev,
                                  rng.next_in(1, 1024), 200 + op);
            break;
          case 3:
            node.send_async(next, rng.next_in(0, 256), 300 + op);
            (void)node.receive_block(prev, 300 + op);
            node.wait_sends();
            break;
          case 4:
            EXPECT_FALSE(
                node.receive_timeout(prev, 9999, util::from_us(25)));
            break;
          default:
            (void)node.reduce_sum(static_cast<double>(node.self() + op));
            break;
        }
      }
      if (node.self() == 0) {
        node.compute(util::from_ms(50));
      } else {
        EXPECT_FALSE(node.try_barrier(util::from_us(10)));
      }
      node.barrier();
    };
    compare_lanes(nprocs, std::nullopt, program,
                  "seed " + std::to_string(seed) + " soup " +
                      std::to_string(variant));
  }
}

TEST_P(FuzzTest, LaneDifferentialFaultyResilientRunsAgree) {
  // Fault injection through the resilient executor: drops, delays and
  // fail-stop deaths. The death path aborts and releases every fiber —
  // across lane threads — and the resulting report must not change.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 4; ++variant) {
    util::Rng shape(seed * 2693 + static_cast<std::uint64_t>(variant) * 11);
    const std::int32_t nprocs = 8;
    const auto pattern = patterns::exact_density(
        nprocs, 0.15 + 0.5 * shape.next_double(), 256,
        seed * 1181 + static_cast<std::uint64_t>(variant));
    const auto schedule =
        sched::build_schedule(sched::Scheduler::Greedy, pattern);

    sim::FaultPlan plan;
    plan.seed = seed * 59 + static_cast<std::uint64_t>(variant);
    plan.drop_prob = 0.05 * static_cast<double>(shape.next_in(0, 2));
    plan.delay_prob = 0.10;
    plan.delay = util::from_us(50);
    if (variant % 2 == 1) {
      plan.deaths.push_back(
          {static_cast<machine::NodeId>(
               shape.next_below(static_cast<std::uint64_t>(nprocs))),
           util::from_us(shape.next_in(100, 900))});
    }

    const auto resilient_capture = [&](std::int32_t lanes) {
      Cm5Machine m(MachineParams::cm5_defaults(nprocs));
      m.set_execution_model(sim::ExecutionModel::kFibers);
      m.set_execution_lanes(lanes);
      m.set_fault_plan(plan);
      sim::TraceRecorder recorder;
      sched::ResilientOptions options;
      options.trace = recorder.sink();
      const auto report = sched::run_resilient_schedule(m, schedule, options);
      BackendCapture out;
      out.result = report.run;
      out.events = recorder.events();
      return std::pair(std::move(out), report.to_json().dump());
    };
    const auto [one, one_report] = resilient_capture(1);
    const std::string what =
        "seed " + std::to_string(seed) + " faulty " + std::to_string(variant);
    for (const std::int32_t lanes : kLaneCounts) {
      const auto [multi, multi_report] = resilient_capture(lanes);
      expect_captures_identical(one, multi, "1 lane ",
                                std::to_string(lanes) + " lanes",
                                what + " lanes=" + std::to_string(lanes));
      // The whole report — counts, per-step timings, digests — byte for
      // byte.
      EXPECT_EQ(one_report, multi_report)
          << what << " lanes=" << lanes;
    }
  }
}

TEST_P(FuzzTest, LaneDifferentialCheckpointResumeAgrees) {
  // Checkpoint/resume kill points at mixed lane counts: the full run,
  // the killed run and the resumed run each use a different lane count,
  // and the resumed report must still match the uninterrupted single-lane
  // run byte for byte.
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  const auto pattern = patterns::exact_density(
      nprocs, 0.2 + 0.5 * static_cast<double>(seed % 4) / 3.0, 256,
      seed * 859 + 5);
  const auto schedule =
      sched::build_schedule(sched::Scheduler::Balanced, pattern);

  sim::FaultPlan plan;
  plan.seed = seed * 17 + 3;
  plan.drop_prob = 0.04;
  plan.corrupt_prob = 0.02;
  if (seed % 3 == 0) {
    plan.deaths.push_back({static_cast<machine::NodeId>(seed % nprocs),
                           util::from_us(1500)});
  }

  const auto machine_with_lanes = [&](std::int32_t lanes) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    m.set_execution_model(sim::ExecutionModel::kFibers);
    m.set_execution_lanes(lanes);
    m.set_fault_plan(plan);
    return m;
  };
  sched::ResilientOptions options;
  options.measure_fault_free_baseline = false;

  Cm5Machine full_machine = machine_with_lanes(1);
  const auto full =
      sched::run_resilient_schedule(full_machine, schedule, options);
  const std::string want = full.to_json().dump();

  // Kill after the first and last step boundaries; spread the lane
  // counts so kill and resume run on different backends.
  const std::int32_t last = schedule.num_steps() - 1;
  for (const std::int32_t step : {std::int32_t{0}, last}) {
    std::shared_ptr<const sched::ResilientCheckpoint> token;
    sched::ResilientOptions stop = options;
    stop.stop_after_step = step;
    stop.checkpoint_sink = [&](const sched::ResilientCheckpoint& cp) {
      token = std::make_shared<sched::ResilientCheckpoint>(cp);
    };
    Cm5Machine stop_machine = machine_with_lanes(2);
    const auto partial =
        sched::run_resilient_schedule(stop_machine, schedule, stop);
    ASSERT_NE(token, nullptr) << "seed " << seed << " step " << step;
    EXPECT_EQ(partial.steps_completed, step + 1);

    sched::ResilientOptions resume = options;
    resume.resume_from = token;
    Cm5Machine resume_machine = machine_with_lanes(4);
    const auto resumed =
        sched::run_resilient_schedule(resume_machine, schedule, resume);
    EXPECT_EQ(resumed.to_json().dump(), want)
        << "seed " << seed << " killed after step " << step
        << " (kill at 2 lanes, resume at 4)";
  }
}

// --- streaming-vs-batch analysis differential -------------------------------
//
// The streaming consumers (sim::MetricsBuilder / sim::TraceValidator)
// promise byte-identical output to the retained batch oracles
// (sim::analyze_batch / sim::validate_trace_batch) on any kernel-
// produced trace. Each compared trace is one case: 12 seeds x
// (28 clean + 28 faulty + 28 lane-cycled) >= 1000 cases across the
// suite. Metrics are compared through their full JSON dump (every node,
// step and link row), violations as exact string vectors.

void expect_streaming_matches_batch(const std::vector<sim::TraceEvent>& events,
                                    std::int32_t nprocs,
                                    const sim::RunResult* result,
                                    const std::string& what) {
  const sim::RunMetrics batch = sim::analyze_batch(events, nprocs, result);
  sim::MetricsBuilder builder(nprocs);
  for (const sim::TraceEvent& e : events) builder.on_event(e);
  const sim::RunMetrics streamed = builder.finalize(result);
  EXPECT_EQ(streamed.to_json(true).dump(), batch.to_json(true).dump()) << what;

  const std::vector<std::string> batch_violations =
      sim::validate_trace_batch(events, nprocs, result);
  sim::TraceValidator validator(nprocs);
  for (const sim::TraceEvent& e : events) validator.on_event(e);
  EXPECT_EQ(validator.finalize(result), batch_violations) << what;
}

TEST_P(FuzzTest, StreamingAnalysisMatchesBatchOnSchedules) {
  // 28 clean cases per seed: 7 random patterns x 4 schedulers.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 8443 + 19);
  for (int variant = 0; variant < 7; ++variant) {
    const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
    const double density = 0.10 + rng.next_double() * 0.6;
    const auto bytes = rng.next_in(1, 2048);
    const auto pattern = patterns::random_density(
        nprocs, density, bytes,
        seed * 389 + static_cast<std::uint64_t>(variant));
    for (const auto scheduler :
         {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
          sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
      const auto schedule = sched::build_schedule(scheduler, pattern);
      const BackendCapture cap = capture_run(
          sim::ExecutionModel::kFibers, nprocs, std::nullopt,
          [&](Node& node) { sched::execute_schedule(node, schedule); });
      expect_streaming_matches_batch(
          cap.events, nprocs, &cap.result,
          "seed " + std::to_string(seed) + " variant " +
              std::to_string(variant) + " " +
              std::string(sched::scheduler_name(scheduler)));
    }
  }
}

TEST_P(FuzzTest, StreamingAnalysisMatchesBatchOnFaultyRuns) {
  // 28 faulty cases per seed through the resilient executor: drops,
  // delays and fail-stop deaths put FaultDrop-after-TransferComplete
  // pairs, unmatched transfers and dead-node tails into the stream —
  // exactly the shapes the streaming drop lookahead and the relaxed
  // validator gates must reproduce.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 28; ++variant) {
    util::Rng shape(seed * 2833 + static_cast<std::uint64_t>(variant) * 13);
    const std::int32_t nprocs = 8;
    const auto pattern = patterns::exact_density(
        nprocs, 0.15 + 0.5 * shape.next_double(), 256,
        seed * 1277 + static_cast<std::uint64_t>(variant));
    const auto schedule =
        sched::build_schedule(sched::Scheduler::Greedy, pattern);

    sim::FaultPlan plan;
    plan.seed = seed * 71 + static_cast<std::uint64_t>(variant);
    plan.drop_prob = 0.05 * static_cast<double>(shape.next_in(0, 2));
    plan.delay_prob = 0.10;
    plan.delay = util::from_us(50);
    if (variant % 3 == 1) {
      plan.deaths.push_back(
          {static_cast<machine::NodeId>(shape.next_below(
               static_cast<std::uint64_t>(nprocs))),
           util::from_us(shape.next_in(100, 900))});
    }

    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    m.set_fault_plan(plan);
    sim::TraceRecorder recorder;
    sched::ResilientOptions options;
    options.trace = recorder.sink();
    const auto report = sched::run_resilient_schedule(m, schedule, options);
    expect_streaming_matches_batch(
        recorder.events(), nprocs, &report.run,
        "seed " + std::to_string(seed) + " faulty " + std::to_string(variant));
  }
}

TEST_P(FuzzTest, StreamingAnalysisMatchesBatchAcrossLanes) {
  // 28 lane-cycled cases per seed (at least: 9 patterns x lanes 1/2/4,
  // plus one extra at the widest pattern): the multi-lane backend commits
  // events through a different mechanism, so the streaming consumers see
  // its (identical, by lane invariance) stream produced under real
  // overlap.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 5381 + 23);
  int cases = 0;
  for (int variant = 0; variant < 10 && cases < 28; ++variant) {
    const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 4));
    const double density = 0.15 + rng.next_double() * 0.5;
    const auto bytes = rng.next_in(1, 1024);
    const auto pattern = patterns::random_density(
        nprocs, density, bytes,
        seed * 743 + static_cast<std::uint64_t>(variant));
    const auto schedule =
        sched::build_schedule(variant % 2 == 0 ? sched::Scheduler::Pairwise
                                               : sched::Scheduler::Balanced,
                              pattern);
    const auto program = [&](Node& node) {
      sched::execute_schedule(node, schedule);
    };
    for (const std::int32_t lanes : {1, 2, 4}) {
      const BackendCapture cap =
          lanes == 1
              ? capture_run(sim::ExecutionModel::kFibers, nprocs, std::nullopt,
                            program)
              : capture_lanes(lanes, nprocs, std::nullopt, program);
      expect_streaming_matches_batch(
          cap.events, nprocs, &cap.result,
          "seed " + std::to_string(seed) + " variant " +
              std::to_string(variant) + " lanes " + std::to_string(lanes));
      ++cases;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace cm5
