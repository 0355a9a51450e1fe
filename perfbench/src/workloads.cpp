#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "cm5/machine/machine.hpp"
#include "cm5/mesh/generate.hpp"
#include "cm5/mesh/halo.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"
#include "harness.hpp"

namespace cm5bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name, std::int32_t cell) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.cell = cell;
  span.round = round_;
  stack_.push_back(index);
  span.start = now_s();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  CM5_CHECK(!stack_.empty() && stack_.back() == index);
  stack_.pop_back();
}

double SpanLog::total(std::string_view name, std::int32_t round) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.round == round && name == s.name) sum += s.end - s.start;
  }
  return sum;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"exchange-256", "rex-2048",
                                              "halo-1024", "faults-256"};
  return names;
}

namespace {

constexpr std::int64_t kExchangeBytes = 1920;

CellSpec exchange_cell(std::int32_t nprocs, sched::ExchangeAlgorithm alg) {
  CellSpec c;
  c.name = std::string(sched::exchange_name(alg)) + "/" +
           std::to_string(nprocs);
  c.kind = CellKind::kExchange;
  c.nprocs = nprocs;
  c.exchange = alg;
  c.bytes = kExchangeBytes;
  return c;
}

CellSpec schedule_cell(std::string label, const sched::CommPattern& pattern,
                       sched::Scheduler scheduler) {
  CellSpec c;
  c.name = std::string(sched::scheduler_name(scheduler)) + "/" + label;
  c.kind = CellKind::kScheduled;
  c.nprocs = pattern.nprocs();
  c.pattern = &pattern;
  c.scheduler = scheduler;
  return c;
}

sim::FaultPlan fault_plan(std::int32_t nprocs, std::uint64_t plan_seed) {
  util::SplitMix64 pick(plan_seed);
  sim::FaultPlan plan;
  plan.seed = pick.next();
  plan.drop_prob = 0.01;
  plan.burst = {0.02, 0.25, 0.0, 0.8};
  // Three distinct victims: two degraded links, one gray-slow node.
  std::vector<net::NodeId> victims;
  while (victims.size() < 3) {
    const auto v = static_cast<net::NodeId>(
        pick.next() % static_cast<std::uint64_t>(nprocs));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  plan.degrades.push_back({victims[0], 0, 0.25});
  plan.degrades.push_back({victims[1], 0, 0.5});
  plan.slowdowns.push_back({victims[2], 0, util::kTimeNever, 3.0});
  plan.validate(nprocs);
  return plan;
}

}  // namespace

// Why each workload exists is in perfbench/NOTES.md.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool reduced, SpanLog* spans) {
  const bool exchange = name == "exchange-256";
  const bool rex = name == "rex-2048";
  const bool halo = name == "halo-1024";
  const bool faults = name == "faults-256";
  if (!exchange && !rex && !halo && !faults) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::int32_t n = reduced ? 32 : 256;
  if (rex) n = reduced ? 64 : 2048;
  if (halo) n = reduced ? 32 : 1024;
  if (faults) n = reduced ? 32 : 128;

  // One --seed fans out into independent input seeds.
  util::SplitMix64 fan(seed);
  const std::uint64_t pattern_seed = fan.next();
  const std::uint64_t mesh_seed = fan.next();
  const std::uint64_t plan_seed = fan.next();

  Workload w;
  w.name = name;
  // Every set-up span is taken on every workload, empty where the
  // workload does not use that layer, so each reports every metric.
  std::optional<mesh::TriMesh> m;
  {
    Scope s(spans, "mesh.generate", -1);
    if (halo) m.emplace(mesh::airfoil_with_target(256 * n, mesh_seed));
  }
  std::vector<mesh::PartId> part;
  {
    Scope s(spans, "mesh.partition", -1);
    if (halo) part = mesh::rcb_vertex_partition(*m, n);
  }
  std::optional<mesh::HaloPlan> halo_plan;
  {
    Scope s(spans, "mesh.halo", -1);
    if (halo) halo_plan.emplace(mesh::build_vertex_halo(*m, part, n));
  }
  std::optional<sim::FaultPlan> plan;
  {
    Scope s(spans, "patterns.generate", -1);
    if (halo) {
      w.patterns.push_back(halo_plan->pattern(32));  // Euler
      w.patterns.push_back(halo_plan->pattern(8));   // CG
    } else if (faults) {
      w.patterns.push_back(patterns::random_density(n, 0.10, 512, pattern_seed));
      plan = fault_plan(n, plan_seed);
    }
  }

  if (exchange) {
    for (const auto alg : {sched::ExchangeAlgorithm::Pairwise,
                           sched::ExchangeAlgorithm::Recursive,
                           sched::ExchangeAlgorithm::Balanced}) {
      w.cells.push_back(exchange_cell(n, alg));
    }
  } else if (rex) {
    w.cells.push_back(exchange_cell(n, sched::ExchangeAlgorithm::Recursive));
  } else if (halo) {
    const char* labels[] = {"euler", "cg"};
    for (std::size_t i = 0; i < 2; ++i) {
      for (const auto alg :
           {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
            sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
        CellSpec c = schedule_cell(labels[i], w.patterns[i], alg);
        c.step_barriers = true;
        w.cells.push_back(std::move(c));
      }
    }
  } else {
    for (const auto alg :
         {sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
      CellSpec c = schedule_cell("random10", w.patterns.front(), alg);
      c.kind = CellKind::kResilient;
      c.plan = plan;
      w.cells.push_back(std::move(c));
    }
  }
  return w;
}

std::string first_difference(const Outcome& expected, const Outcome& got) {
  const auto differs = [](const char* what, auto a, auto b) {
    return std::string(what) + " " + std::to_string(a) + " != " +
           std::to_string(b);
  };
  if (expected.makespan != got.makespan) {
    return differs("makespan", expected.makespan, got.makespan);
  }
  if (expected.finish_time != got.finish_time) return "per-node finish times";
  if (expected.bytes_by_level != got.bytes_by_level) return "bytes_by_level";
  if (expected.flows_started != got.flows_started) {
    return differs("flows_started", expected.flows_started, got.flows_started);
  }
  if (expected.flows_completed != got.flows_completed) {
    return differs("flows_completed", expected.flows_completed,
                   got.flows_completed);
  }
  if (expected.report != got.report) return "resilient report";
  if (expected.rate_solves != got.rate_solves) {
    return differs("rate_solves", expected.rate_solves, got.rate_solves);
  }
  if (expected.heap_pops != got.heap_pops) {
    return differs("heap_pops", expected.heap_pops, got.heap_pops);
  }
  if (expected.context_switches != got.context_switches) {
    return differs("context_switches", expected.context_switches,
                   got.context_switches);
  }
  return "";
}

namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t digest(std::uint64_t h, const Outcome& o) {
  h = fnv(h, static_cast<std::uint64_t>(o.makespan));
  for (const util::SimTime t : o.finish_time) {
    h = fnv(h, static_cast<std::uint64_t>(t));
  }
  for (const double b : o.bytes_by_level) {
    h = fnv(h, std::bit_cast<std::uint64_t>(b));
  }
  h = fnv(h, static_cast<std::uint64_t>(o.flows_started));
  h = fnv(h, static_cast<std::uint64_t>(o.flows_completed));
  h = fnv(h, static_cast<std::uint64_t>(o.steps));
  for (const char c : o.report) h = fnv(h, static_cast<unsigned char>(c));
  return h;
}

namespace {

Outcome outcome_of(const sim::RunResult& r, std::int32_t steps) {
  Outcome o;
  o.makespan = r.makespan;
  o.finish_time = r.finish_time;
  o.bytes_by_level = r.network.bytes_by_level;
  o.flows_started = r.network.flows_started;
  o.flows_completed = r.network.flows_completed;
  o.rate_solves = r.network.rate_solves;
  o.heap_pops = r.network.heap_pops;
  o.context_switches = r.context_switches;
  o.steps = steps;
  return o;
}

}  // namespace

CellRun run_cell(const CellSpec& cell, Observe observe, SpanLog* spans,
                 std::int32_t cell_id, sim::TraceRecorder* retained) {
  CellRun out;
  const double t0 = now_s();
  std::optional<sched::CommSchedule> schedule;
  {
    // Exchange cells have no schedule; the empty span is still taken so
    // every workload reports the layer.
    Scope s(spans, "sched.build", cell_id);
    if (cell.kind != CellKind::kExchange) {
      schedule.emplace(sched::build_schedule(cell.scheduler, *cell.pattern));
    }
  }
  std::optional<machine::Cm5Machine> machine;
  {
    Scope s(spans, "machine.construct", cell_id);
    machine.emplace(machine::MachineParams::cm5_defaults(cell.nprocs));
    if (cell.plan) machine->set_fault_plan(*cell.plan);
  }

  sim::TraceRecorder stream;
  std::optional<sim::MetricsBuilder> builder;
  std::optional<sim::TraceValidator> validator;
  sim::TraceRecorder* recorder = nullptr;
  if (observe == Observe::kStream) {
    builder.emplace(cell.nprocs);
    validator.emplace(cell.nprocs);
    stream.add_consumer(&*builder);
    stream.add_consumer(&*validator);
    stream.set_max_retained(0);
    recorder = &stream;
  } else if (observe == Observe::kRetain) {
    CM5_CHECK(retained != nullptr);
    recorder = retained;
  }

  sim::RunResult result;
  std::optional<sched::ResilientRunReport> report;
  {
    Scope s(spans, "machine.run", cell_id);
    machine::Program program;
    if (cell.kind == CellKind::kExchange) {
      program = [&cell](machine::Node& node) {
        sched::complete_exchange(node, cell.exchange, cell.bytes);
      };
    } else if (cell.kind == CellKind::kScheduled) {
      sched::ExecutorOptions options;
      options.barrier_per_step = cell.step_barriers;
      program = [&schedule, options](machine::Node& node) {
        sched::execute_schedule(node, *schedule, options);
      };
    }
    if (cell.kind == CellKind::kResilient) {
      sched::ResilientOptions options;
      options.measure_fault_free_baseline = false;
      if (recorder != nullptr) options.trace = recorder->sink();
      report = sched::run_resilient_schedule(*machine, *schedule, options);
      result = report->run;
    } else if (recorder != nullptr) {
      result = machine->run_traced(program, recorder->sink());
    } else {
      result = machine->run(program);
    }
  }
  if (builder) {
    Scope s(spans, "trace.finalize", cell_id);
    const sim::RunMetrics metrics = builder->finalize(&result);
    out.violations = validator->finalize(&result);
    out.events = metrics.num_events;
  }
  out.seconds = now_s() - t0;

  out.out = outcome_of(result, schedule ? schedule->num_steps() : 0);
  out.result = std::move(result);
  if (report) {
    out.out.report = report->to_json().dump();
    out.out.edges_total = report->edges_total;
    out.out.edges_delivered = report->edges_delivered;
    out.out.edges_lost = static_cast<std::int64_t>(report->lost_edges.size());
    out.out.retries = report->retries;
    out.out.recv_timeouts = report->recv_timeouts;
  }
  return out;
}

void run_protocol_pair(const CellSpec& cell, SpanLog* spans,
                       std::int32_t cell_id) {
  // Only resilient cells run the protocol; the others take empty spans.
  const bool resilient = cell.kind == CellKind::kResilient;
  std::optional<sched::CommSchedule> schedule;
  if (resilient) {
    schedule.emplace(sched::build_schedule(cell.scheduler, *cell.pattern));
  }
  const auto params = machine::MachineParams::cm5_defaults(cell.nprocs);
  {
    Scope s(spans, "sched.resilient_healthy", cell_id);
    if (resilient) {
      machine::Cm5Machine healthy(params);
      sched::ResilientOptions options;
      options.measure_fault_free_baseline = false;
      sched::run_resilient_schedule(healthy, *schedule, options);
    }
  }
  {
    Scope s(spans, "sched.plain", cell_id);
    if (resilient) {
      machine::Cm5Machine plain(params);
      plain.run([&schedule](machine::Node& node) {
        sched::execute_schedule(node, *schedule);
      });
    }
  }
}

}  // namespace cm5bench
