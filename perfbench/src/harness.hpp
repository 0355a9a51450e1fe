#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cm5/machine/params.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/kernel.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/time.hpp"

/// \file harness.hpp
/// Shared types of the cm5sched benchmark harness: host-time spans,
/// workload cells, and the simulated outputs every pass must reproduce.

namespace cm5bench {

using namespace cm5;

/// Host seconds on the steady clock.
double now_s();

/// One timed interval of a traced pass.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none
  std::int32_t cell = -1;    ///< cell id; -1 = workload set-up
  std::int32_t round = 0;
};

/// In-memory span store of one process; written out when the run ends.
class SpanLog {
 public:
  std::int32_t open(const char* name, std::int32_t cell);
  void close(std::int32_t index);
  void set_round(std::int32_t round) { round_ = round; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Summed duration of the spans named `name` in `round`.
  double total(std::string_view name, std::int32_t round) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t round_ = 0;
};

/// Records a span for its lifetime. A null log records nothing, which is
/// how the untraced passes run the very same code.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int32_t cell)
      : log_(log), index_(log != nullptr ? log->open(name, cell) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

enum class CellKind {
  kExchange,   ///< a complete-exchange algorithm (no schedule)
  kScheduled,  ///< build_schedule + execute_schedule
  kResilient,  ///< build_schedule + run_resilient_schedule under a plan
};

/// One simulated run of a workload.
struct CellSpec {
  std::string name;
  CellKind kind = CellKind::kExchange;
  std::int32_t nprocs = 0;
  sched::ExchangeAlgorithm exchange = sched::ExchangeAlgorithm::Pairwise;
  std::int64_t bytes = 0;
  const sched::CommPattern* pattern = nullptr;
  sched::Scheduler scheduler = sched::Scheduler::Linear;
  bool step_barriers = false;
  std::optional<sim::FaultPlan> plan;  ///< kResilient only
};

/// A workload's generated inputs and its cells (which point into them;
/// a deque keeps the patterns in place when the workload moves).
struct Workload {
  std::string name;
  std::deque<sched::CommPattern> patterns;
  std::vector<CellSpec> cells;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Generates a workload's inputs from `seed`, recording set-up spans
/// (mesh.generate, mesh.partition, mesh.halo, patterns.generate).
/// `reduced` selects the small self-test sizes. Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool reduced, SpanLog* spans);

/// The simulated outputs of one cell, plus the deterministic work
/// counters that explain its host time.
struct Outcome {
  util::SimTime makespan = 0;
  std::vector<util::SimTime> finish_time;
  std::vector<double> bytes_by_level;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t rate_solves = 0;
  std::int64_t heap_pops = 0;
  std::int64_t context_switches = 0;
  std::int32_t steps = 0;  ///< schedule steps (0 for exchange cells)
  /// ResilientRunReport::to_json() text; empty for plain runs.
  std::string report;
  std::int64_t edges_total = 0;
  std::int64_t edges_delivered = 0;
  std::int64_t edges_lost = 0;
  std::int64_t retries = 0;
  std::int64_t recv_timeouts = 0;
};

/// First field on which two outcomes differ, or "" when identical.
std::string first_difference(const Outcome& expected, const Outcome& got);

/// FNV-1a over the simulated outputs of `outcome` (work counters
/// excluded), folded into `h`.
std::uint64_t digest(std::uint64_t h, const Outcome& outcome);

enum class Observe {
  kNone,    ///< untraced
  kStream,  ///< MetricsBuilder + TraceValidator, nothing retained
  kRetain,  ///< every event retained in the caller's TraceRecorder
};

struct CellRun {
  Outcome out;
  sim::RunResult result;
  std::int64_t events = 0;               ///< kStream only
  std::vector<std::string> violations;   ///< kStream only
  double seconds = 0.0;  ///< build + construct + run (+ finalize)
};

/// Runs one cell end to end, recording sched.build, machine.construct,
/// machine.run and trace.finalize spans when `spans` is set.
CellRun run_cell(const CellSpec& cell, Observe observe, SpanLog* spans,
                 std::int32_t cell_id,
                 sim::TraceRecorder* retained = nullptr);

/// Times a healthy resilient run of a resilient cell's schedule and plain
/// execute_schedule of the same schedule (spans sched.resilient_healthy
/// and sched.plain; empty for other cells).
void run_protocol_pair(const CellSpec& cell, SpanLog* spans,
                       std::int32_t cell_id);

/// Result of replaying a run's flow events through a fresh FluidNetwork.
struct ReplayResult {
  std::int64_t rate_solves = 0;
  std::int64_t heap_pops = 0;
  std::int64_t flows = 0;
  std::int64_t active_at_solves = 0;  ///< sum of active flows per solve
  std::int64_t probed_active = 0;     ///< active flows at probed solves
  std::int64_t changed = 0;           ///< of those, flows whose rate moved
  std::string mismatch;  ///< first divergence from the trace, "" if none
};

/// The flow-level inputs and outputs of a run, taken from its trace.
struct FlowEvent {
  enum class Kind : std::uint8_t { kStart, kDegrade };
  Kind kind = Kind::kStart;
  util::SimTime time = 0;
  net::NodeId node = -1;   ///< source (start) or degraded node
  net::NodeId peer = -1;   ///< destination (start)
  std::int64_t bytes = 0;  ///< user bytes (start) or scale * 1e6 (degrade)
};
struct Completion {
  util::SimTime time = 0;
  net::NodeId src = -1;
  net::NodeId dst = -1;
};
struct FlowLog {
  std::vector<FlowEvent> inputs;
  std::vector<Completion> completions;
};

FlowLog flow_log(const std::vector<sim::TraceEvent>& events);

/// Drives a FluidNetwork with `log.inputs` in the order the kernel did
/// and checks every completion against `log.completions`. With
/// `probe_rates`, reads every active flow's rate after each solve to
/// count changed rates (untimed use only).
ReplayResult replay(const machine::MachineParams& params, const FlowLog& log,
                    bool probe_rates);

}  // namespace cm5bench
