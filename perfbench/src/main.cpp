// cm5bench: the cm5sched benchmark harness. See perfbench/NOTES.md.
//
//   cm5bench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans FILE] [--no-replay-check]
//   cm5bench --self-test
//
// The last line of a measuring run's standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of the traced pass.
// A run that prints a result exits 0; failed cells show in the result.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/json.hpp"
#include "harness.hpp"

namespace cm5bench {
namespace {

using util::json::Value;

// Environment knobs that select another implementation of a layer. A
// benchmark run measures the default program only: the thread backend
// would spawn one OS thread per simulated node, and the oracle solver
// and batch analysis are different programs.
constexpr const char* kModeKnobs[] = {"CM5_EXEC_THREADS", "CM5_LANES",
                                      "CM5_SOLVER_ORACLE", "CM5_TRACE_STREAM",
                                      "CM5_ANALYZE_BATCH"};

// Set-up repeats until both minimums are met; setup_s is the median.
// Short set-ups thereby get many samples and long ones a few.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 2000;
constexpr double kMinSetupSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1992;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  bool replay_check = true;  ///< --trace 0 only
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cm5bench: %s\nusage: cm5bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n"
               "                [--no-replay-check]\n"
               "       cm5bench --self-test\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (flag == "--no-replay-check") {
      a.replay_check = false;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) {
        usage("--seconds must be a number in (0, 600], got '" + v + "'");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.self_test) return a;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

/// Keeps the (single-threaded) simulator on the CPU it started on, so
/// migrations do not add to the run-to-run spread. Returns the CPU, or
/// -1 when pinning failed.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// Prints the build and environment facts a result depends on, and
/// refuses to run when a mode knob is set or the build is not Release.
void check_provenance(std::uint64_t seed) {
  Value p = Value::object();
  p["build_type"] = std::string(CM5BENCH_BUILD_TYPE);
  p["compiler"] = std::string(CM5BENCH_COMPILER);
  p["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  p["seed"] = static_cast<std::int64_t>(seed);
  p["pinned_cpu"] = pin_to_current_cpu();
  Value knobs = Value::object();
  std::string refused;
  for (const char* knob : kModeKnobs) {
    const char* v = std::getenv(knob);
    knobs[knob] = v == nullptr ? Value() : Value(std::string(v));
    if (v != nullptr) refused += std::string(refused.empty() ? "" : ", ") + knob;
  }
  p["knobs"] = std::move(knobs);
  std::printf("provenance %s\n", p.dump().c_str());
  std::fflush(stdout);
  if (!refused.empty()) {
    std::fprintf(stderr, "cm5bench: refusing to run with %s set\n",
                 refused.c_str());
    std::exit(2);
  }
  if (std::string(CM5BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "cm5bench: refusing to run a %s build\n",
                 CM5BENCH_BUILD_TYPE);
    std::exit(2);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Every check of one cell; the first failure reason is kept.
struct CellCheck {
  std::optional<Outcome> expected;  ///< the first run's outputs
  std::string failure;

  void fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
  /// Every run of a cell must reproduce the first one exactly.
  void expect(const Outcome& got, const char* pass) {
    if (!expected) {
      expected = got;
    } else if (const std::string d = first_difference(*expected, got);
               !d.empty()) {
      fail(std::string(pass) + " run differs: " + d);
    }
    if (got.edges_delivered + got.edges_lost != got.edges_total) {
      fail("delivered + lost edges != total edges");
    }
  }
  void expect_valid(const std::vector<std::string>& violations) {
    if (!violations.empty()) fail("trace violation: " + violations.front());
  }
  void expect_replay(const ReplayResult& r) {
    if (!r.mismatch.empty()) {
      fail("replay: " + r.mismatch);
    } else if (expected && r.rate_solves != expected->rate_solves) {
      fail("replay rate_solves " + std::to_string(r.rate_solves) +
           " != run " + std::to_string(expected->rate_solves));
    } else if (expected && r.heap_pops != expected->heap_pops) {
      fail("replay heap_pops " + std::to_string(r.heap_pops) + " != run " +
           std::to_string(expected->heap_pops));
    } else if (expected && r.flows != expected->flows_started) {
      fail("replay flows " + std::to_string(r.flows) + " != run " +
           std::to_string(expected->flows_started));
    }
  }
};

/// Runs `body`, turning an exception into a failed cell.
template <typename F>
void guarded(CellCheck& check, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    check.fail(std::string("exception: ") + e.what());
  }
}

struct Setup {
  Workload workload;
  std::vector<double> seconds;  ///< one per repetition
};

/// Input generation plus warm-up, repeated: the warm-up runs every cell
/// once at the reduced self-test size (code, allocator and caches) and
/// one barrier at the workload's largest partition (fills the fiber
/// stack pool).
Setup set_up(const std::string& name, std::uint64_t seed, bool reduced,
             SpanLog* spans) {
  std::optional<Workload> w;
  std::vector<double> seconds;
  double spent = 0.0;
  while (static_cast<int>(seconds.size()) < kMaxSetups &&
         (static_cast<int>(seconds.size()) < kMinSetups ||
          spent < kMinSetupSeconds)) {
    if (spans != nullptr) spans->set_round(static_cast<int>(seconds.size()));
    const double t0 = now_s();
    w.emplace(make_workload(name, seed, reduced, spans));
    const Workload small = make_workload(name, seed, true, nullptr);
    for (const CellSpec& c : small.cells) {
      run_cell(c, Observe::kNone, nullptr, -1);
    }
    std::int32_t n = 0;
    for (const CellSpec& c : w->cells) n = std::max(n, c.nprocs);
    machine::Cm5Machine warm(machine::MachineParams::cm5_defaults(n));
    warm.run([](machine::Node& node) { node.barrier(); });
    seconds.push_back(now_s() - t0);
    spent += seconds.back();
  }
  return Setup{std::move(*w), std::move(seconds)};
}

struct LayerRun {
  ReplayResult replayed;
  std::int64_t events = 0;
};

/// Retained-trace run of one cell, then its flow replay (network.replay
/// span) and the analysis of the retained events (trace.analyze span).
LayerRun layer_pass(const CellSpec& cell, std::int32_t id, CellCheck& check,
                    SpanLog* spans) {
  LayerRun out;
  sim::TraceRecorder recorder;
  const CellRun run = run_cell(cell, Observe::kRetain, nullptr, id, &recorder);
  check.expect(run.out, "retained");
  out.events = recorder.total_events();
  const FlowLog log = flow_log(recorder.events());
  const auto params = machine::MachineParams::cm5_defaults(cell.nprocs);
  {
    Scope s(spans, "network.replay", id);
    out.replayed = replay(params, log, false);
  }
  check.expect_replay(out.replayed);
  {
    Scope s(spans, "trace.analyze", id);
    sim::MetricsBuilder builder(cell.nprocs);
    sim::TraceValidator validator(cell.nprocs);
    for (const sim::TraceEvent& e : recorder.events()) {
      builder.on_event(e);
      validator.on_event(e);
    }
    builder.finalize(&run.result);
    check.expect_valid(validator.finalize(&run.result));
  }
  return out;
}

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Value metrics = Value::object();

  void put(const char* name, double value, const char* unit) {
    Value m = Value::object();
    m["value"] = value;
    m["unit"] = std::string(unit);
    metrics[name] = std::move(m);
  }
  void print() const {
    Value out = Value::object();
    out["correct"] = failed == 0;
    out["attempted"] = attempted;
    out["failed"] = failed;
    out["metrics"] = metrics;
    std::printf("%s\n", out.dump().c_str());
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Prints each failed cell with its reason and the workload's sim_digest
/// over every cell's simulated outputs; counts cells into `result`.
void report_cells(const Workload& w, const std::vector<CellCheck>& checks,
                  Result& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t c = 0; c < checks.size(); ++c) {
    ++result.attempted;
    if (!checks[c].failure.empty()) {
      ++result.failed;
      std::printf("FAILED %s %s: %s\n", w.name.c_str(), w.cells[c].name.c_str(),
                  checks[c].failure.c_str());
    }
    if (checks[c].expected) h = digest(h, *checks[c].expected);
  }
  std::printf("sim_digest %s %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(h));
}

Value spans_json(const SpanLog& log, double origin) {
  Value spans = Value::array();
  for (const Span& s : log.spans()) {
    Value v = Value::object();
    v["name"] = std::string(s.name);
    v["cell"] = s.cell;
    v["round"] = s.round;
    v["parent"] = s.parent;
    v["start_s"] = s.start - origin;
    v["end_s"] = s.end - origin;
    spans.push_back(std::move(v));
  }
  return spans;
}

/// Writes the spans of a traced run: set-up spans (cell -1, round =
/// set-up repetition) and the rounds' cell spans.
void write_spans(const std::string& path, const Workload& w,
                 std::uint64_t seed, const SpanLog& setup_log,
                 const SpanLog& round_log, double origin) {
  Value root = Value::object();
  root["workload"] = w.name;
  root["seed"] = static_cast<std::int64_t>(seed);
  Value cells = Value::array();
  for (const CellSpec& c : w.cells) cells.push_back(c.name);
  root["cells"] = std::move(cells);
  root["setup_spans"] = spans_json(setup_log, origin);
  root["spans"] = spans_json(round_log, origin);
  util::json::write_file(path, root);
}

int run_benchmark(const Args& args) {
  check_provenance(args.seed);
  const double start = now_s();
  SpanLog setup_log;
  SpanLog round_log;
  const Setup setup =
      set_up(args.workload, args.seed, false, args.trace ? &setup_log : nullptr);
  const Workload& w = setup.workload;
  const std::size_t ncells = w.cells.size();
  std::vector<CellCheck> checks(ncells);

  // Rounds repeat while another fits in the time budget (at least one).
  // A round runs every cell untraced, then observed; with --trace 1 also
  // with spans (the traced pass) and through the layer pass. A host time
  // is the per-cell median over rounds, summed over cells.
  SpanLog* spans = args.trace ? &round_log : nullptr;
  std::vector<std::vector<double>> untraced(ncells), observed(ncells),
      traced(ncells);
  std::vector<std::int64_t> events(ncells, 0);
  std::vector<LayerRun> layers(ncells);
  const double measure_start = now_s();
  double last_round = 0.0;
  std::int32_t rounds = 0;
  while (rounds == 0 || now_s() - measure_start + last_round <= args.seconds) {
    const double round_start = now_s();
    round_log.set_round(rounds);
    for (std::size_t c = 0; c < ncells; ++c) {
      const auto id = static_cast<std::int32_t>(c);
      const CellSpec& cell = w.cells[c];
      CellCheck& check = checks[c];
      guarded(check, [&] {
        const CellRun plain = run_cell(cell, Observe::kNone, nullptr, id);
        check.expect(plain.out, "untraced");
        untraced[c].push_back(plain.seconds);
        const CellRun obs = run_cell(cell, Observe::kStream, nullptr, id);
        check.expect(obs.out, "observed");
        check.expect_valid(obs.violations);
        observed[c].push_back(obs.seconds);
        events[c] = obs.events;
        if (spans == nullptr) return;
        const CellRun spanned = run_cell(cell, Observe::kNone, spans, id);
        check.expect(spanned.out, "traced");
        traced[c].push_back(spanned.seconds);
        layers[c] = layer_pass(cell, id, check, spans);
        run_protocol_pair(cell, spans, id);
      });
    }
    ++rounds;
    last_round = now_s() - round_start;
  }

  const auto sum_medians = [](const std::vector<std::vector<double>>& v) {
    double s = 0.0;
    for (const auto& cell : v) s += median(cell);
    return s;
  };
  const double wall_s = sum_medians(untraced);
  const double observed_wall_s = sum_medians(observed);
  for (std::size_t c = 0; c < ncells; ++c) {
    std::fprintf(stderr, "cell %-18s untraced %.3f s  observed %.3f s  rounds:",
                 w.cells[c].name.c_str(), median(untraced[c]),
                 median(observed[c]));
    for (const double t : untraced[c]) std::fprintf(stderr, " %.3f", t);
    std::fputc('\n', stderr);
  }

  Result result;
  if (!args.trace) {
    std::int64_t total_events = 0;
    for (const std::int64_t e : events) total_events += e;
    const double rss = peak_rss_mb();
    // The replay check runs after the peak-RSS reading: the retained
    // trace it needs is not part of the end-to-end footprint.
    for (std::size_t c = 0; args.replay_check && c < ncells; ++c) {
      guarded(checks[c], [&] {
        layer_pass(w.cells[c], static_cast<std::int32_t>(c), checks[c],
                   nullptr);
      });
    }
    report_cells(w, checks, result);
    result.put("wall_s", wall_s, "s");
    result.put("observed_wall_s", observed_wall_s, "s");
    result.put("sim_events_per_s", static_cast<double>(total_events) / wall_s,
               "1/s");
    result.put("peak_rss_mb", rss, "MB");
    result.put("setup_s", median(setup.seconds), "s");
    result.put("cells_passed_ratio",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
  } else {
    // Changed-rate probe: counters only, so one untimed replay suffices.
    ReplayResult net;
    for (std::size_t c = 0; c < ncells; ++c) {
      guarded(checks[c], [&] {
        sim::TraceRecorder recorder;
        run_cell(w.cells[c], Observe::kRetain, nullptr,
                 static_cast<std::int32_t>(c), &recorder);
        const ReplayResult probed = replay(
            machine::MachineParams::cm5_defaults(w.cells[c].nprocs),
            flow_log(recorder.events()), true);
        checks[c].expect_replay(probed);
        net.probed_active += probed.probed_active;
        net.changed += probed.changed;
      });
    }
    report_cells(w, checks, result);

    std::int64_t context_switches = 0, steps = 0, retries = 0, timeouts = 0,
                 retained = 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      const ReplayResult& r = layers[c].replayed;
      net.rate_solves += r.rate_solves;
      net.heap_pops += r.heap_pops;
      net.flows += r.flows;
      net.active_at_solves += r.active_at_solves;
      retained += layers[c].events;
      if (checks[c].expected) {
        context_switches += checks[c].expected->context_switches;
        steps += checks[c].expected->steps;
        retries += checks[c].expected->retries;
        timeouts += checks[c].expected->recv_timeouts;
      }
    }
    const auto layer = [&](const char* name) {
      std::vector<double> per_round;
      for (std::int32_t r = 0; r < rounds; ++r) {
        per_round.push_back(round_log.total(name, r));
      }
      return median(per_round);
    };
    const auto setup_layer = [&](const char* name) {
      std::vector<double> per_rep;
      for (std::size_t r = 0; r < setup.seconds.size(); ++r) {
        per_rep.push_back(setup_log.total(name, static_cast<std::int32_t>(r)));
      }
      return median(per_rep);
    };
    const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    const double run_s = layer("machine.run");
    const double replay_s = layer("network.replay");
    const double self_s = run_s - replay_s;
    result.put("network.replay_s", replay_s, "s");
    result.put("network.share", ratio(replay_s, run_s), "ratio");
    result.put("network.rate_solves", static_cast<double>(net.rate_solves),
               "count");
    result.put("network.heap_pops", static_cast<double>(net.heap_pops), "count");
    result.put("network.flows", static_cast<double>(net.flows), "count");
    result.put("network.active_per_solve",
               ratio(static_cast<double>(net.active_at_solves),
                     static_cast<double>(net.rate_solves)),
               "flows");
    result.put("network.changed_share",
               ratio(static_cast<double>(net.changed),
                     static_cast<double>(net.probed_active)),
               "ratio");
    result.put("simcore.self_s", self_s, "s");
    result.put("simcore.events", static_cast<double>(retained), "count");
    result.put("simcore.context_switches",
               static_cast<double>(context_switches), "count");
    result.put("simcore.ns_per_event",
               ratio(self_s * 1e9, static_cast<double>(retained)), "ns");
    result.put("trace.analyze_s", layer("trace.analyze"), "s");
    result.put("trace.overhead_s", observed_wall_s - wall_s, "s");
    result.put("sched.build_s", layer("sched.build"), "s");
    result.put("sched.steps", static_cast<double>(steps), "count");
    result.put("sched.resilient_s",
               layer("sched.resilient_healthy") - layer("sched.plain"), "s");
    result.put("sched.retries", static_cast<double>(retries), "count");
    result.put("sched.recv_timeouts", static_cast<double>(timeouts), "count");
    result.put("mesh.generate_s", setup_layer("mesh.generate"), "s");
    result.put("mesh.partition_s", setup_layer("mesh.partition"), "s");
    result.put("mesh.halo_s", setup_layer("mesh.halo"), "s");
    result.put("patterns.generate_s", setup_layer("patterns.generate"), "s");
    result.put("machine.construct_s", layer("machine.construct"), "s");
    result.put("bench.span_overhead_s", sum_medians(traced) - wall_s, "s");
    if (!args.spans_path.empty()) {
      write_spans(args.spans_path, w, args.seed, setup_log, round_log, start);
    }
  }
  std::fprintf(stderr, "cm5bench: %s seed %llu: %d round(s), %.1f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), rounds,
               now_s() - start);
  result.print();
  return 0;
}

/// Reduced sizes of every workload through every check, then proof that
/// a tampered expected value and a tampered replay input each surface
/// as a failed cell with a one-line reason.
int run_self_test() {
  check_provenance(1992);
  int bad = 0;
  const auto verdict = [&bad](const std::string& what, bool ok,
                              const std::string& detail) {
    std::printf("self-test %-44s %s%s%s\n", what.c_str(), ok ? "ok" : "WRONG",
                detail.empty() ? "" : ": ", detail.c_str());
    if (!ok) ++bad;
  };
  for (const std::string& name : workload_names()) {
    const Setup setup = set_up(name, 1992, true, nullptr);
    const Workload& w = setup.workload;
    std::vector<CellCheck> checks(w.cells.size());
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const auto id = static_cast<std::int32_t>(c);
      guarded(checks[c], [&] {
        checks[c].expect(run_cell(w.cells[c], Observe::kNone, nullptr, id).out,
                         "untraced");
        const CellRun obs = run_cell(w.cells[c], Observe::kStream, nullptr, id);
        checks[c].expect(obs.out, "observed");
        checks[c].expect_valid(obs.violations);
        layer_pass(w.cells[c], id, checks[c], nullptr);
      });
      verdict(name + " " + w.cells[c].name + " passes", checks[c].failure.empty(),
              checks[c].failure);
    }
    if (!checks.front().expected) continue;

    const CellSpec& cell = w.cells.front();
    CellCheck tampered;
    tampered.expected = checks.front().expected;
    tampered.expected->makespan += 1;
    guarded(tampered, [&] {
      tampered.expect(run_cell(cell, Observe::kNone, nullptr, 0).out,
                      "untraced");
    });
    verdict(name + " tampered expected makespan fails",
            !tampered.failure.empty() &&
                tampered.failure.find('\n') == std::string::npos,
            tampered.failure);

    CellCheck replayed;
    replayed.expected = checks.front().expected;
    guarded(replayed, [&] {
      sim::TraceRecorder recorder;
      run_cell(cell, Observe::kRetain, nullptr, 0, &recorder);
      FlowLog log = flow_log(recorder.events());
      for (FlowEvent& e : log.inputs) {
        if (e.kind == FlowEvent::Kind::kStart) {
          e.bytes += 4096;
          break;
        }
      }
      replayed.expect_replay(replay(
          machine::MachineParams::cm5_defaults(cell.nprocs), log, false));
    });
    verdict(name + " tampered replay input fails",
            !replayed.failure.empty() &&
                replayed.failure.find('\n') == std::string::npos,
            replayed.failure);
  }
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cm5bench

int main(int argc, char** argv) {
  const cm5bench::Args args = cm5bench::parse_args(argc, argv);
  return args.self_test ? cm5bench::run_self_test()
                        : cm5bench::run_benchmark(args);
}
