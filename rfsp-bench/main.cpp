// rfsp_bench — the repository benchmark's measuring program.
//
//   rfsp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans-out <file>]
//
// Runs one workload as a closed loop: the workload's cases run one after
// another, each to completion, in rounds, until --seconds have passed (at
// least one round). Every case execution is checked (postconditions,
// cross-checks between cases, determinism across rounds) and any mismatch
// or exception counts it as failed. Prints one JSON line: per-case tallies
// and memory hashes (run.py compares them with pins.json), the attempted
// and failed counts, and the metrics:
//   --trace 0  end-to-end metrics of untraced rounds;
//   --trace 1  untraced and traced rounds alternate; per-layer metrics
//              come from the traced rounds' spans (tracing.hpp), which are
//              also written to --spans-out.
// See README.md in this directory for the workloads and the metric map.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "obs/binary_trace.hpp"
#include "obs/stream.hpp"
#include "pram/engine.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace rfsp_bench {
namespace {

using rfsp::Addr;
using rfsp::Pid;
using rfsp::Word;
using rfsp::WorkTally;

// --- Workload geometry ------------------------------------------------------

// X does several times W's work per element, so it runs at a quarter of N
// and no single case dominates a round.
constexpr Pid kWaP = 4096;
constexpr Addr kWaN = Addr{1} << 22;   // W, V, VX
constexpr Addr kWaNX = Addr{1} << 20;  // X
constexpr Addr kStormStalkerN = 4096;  // X, N = P
constexpr Addr kStormN = Addr{1} << 18;
constexpr Pid kStormP = 4096;
constexpr rfsp::Slot kStormCheckpointEvery = 512;
constexpr rfsp::RandomAdversaryOptions kStorm{.fail_prob = 0.05,
                                              .restart_prob = 0.5};
constexpr Pid kSimPrefixN = 2048;  // P = N
constexpr Pid kSimCorN = 4096;     // P = floor(N / log^2 N) = 28
constexpr Pid kSimCorP = 28;
constexpr Pid kSimMatM = 32;  // 32x32 matmul, 1024 simulated processors
constexpr Pid kSimMatP = 256;

// The slot-phase spans of a traced Engine::run must sum to its wall time
// within this share; they tile the run when the wrappers see every call.
constexpr double kCoverageTolerance = 0.02;

// --- Results ----------------------------------------------------------------

struct CaseRun {
  WorkTally tally;
  std::uint64_t hash = 0;
  bool batch_active = false;
  std::uint64_t cycles = 0;  // attempted cycles this execution ran
  std::uint64_t slots = 0;   // slots this execution ran
  double setup_s = 0;
  double run_s = 0;
  std::string error;  // non-empty: the execution failed

  // Layer counters (cheap, filled in both modes).
  std::uint64_t passes = 0;        // sim: Write-All passes
  std::uint64_t useful_steps = 0;  // sim: tau * N
  std::uint64_t schedule_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t trace_bytes = 0;
  bool pool = false;  // ran with cycle_threads > 1
  std::uint64_t pool_busy_ns = 0;
  std::uint64_t pool_idle_ns = 0;
  std::uint64_t pool_commit_wait_ns = 0;
};

std::uint64_t fnv1a(std::span<const Word> words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Word w : words) {
    h ^= static_cast<std::uint64_t>(w);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<Word> random_words(std::size_t n, std::uint64_t seed,
                               std::uint64_t salt, Word bound) {
  std::uint64_t state = seed * 0x2545f4914f6cdd1dull + salt;
  std::vector<Word> out(n);
  for (Word& w : out) w = static_cast<Word>(splitmix(state) % bound);
  return out;
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// Times one case: set-up ends when end_setup() is called (right after the
// Engine constructor), the timed section when finish() is called.
class CaseClock {
 public:
  explicit CaseClock(Tracer* tracer) : tracer_(tracer), start_(now_ns()) {}
  void engine_ctor(std::uint64_t begin, std::uint64_t end) {
    if (tracer_ != nullptr) {
      tracer_->span(SpanKind::kEngineCtor, SpanKind::kSetup, kNoSlot, begin,
                    end);
    }
  }
  void end_setup() {
    setup_end_ = now_ns();
    if (tracer_ != nullptr) {
      tracer_->span(SpanKind::kSetup, SpanKind::kCase, kNoSlot, start_,
                    setup_end_);
    }
  }
  void finish(CaseRun& run) {
    const std::uint64_t end = now_ns();
    run.setup_s = seconds_between(start_, setup_end_);
    run.run_s = seconds_between(setup_end_, end);
    if (tracer_ != nullptr) {
      tracer_->span(SpanKind::kCase, SpanKind::kCase, kNoSlot, start_, end);
    }
  }

 private:
  Tracer* tracer_;
  std::uint64_t start_;
  std::uint64_t setup_end_ = 0;
};

// Build the engine, recording the constructor's span.
std::unique_ptr<rfsp::Engine> make_engine(const rfsp::Program& program,
                                          const rfsp::EngineOptions& options,
                                          CaseClock& clock) {
  const std::uint64_t begin = now_ns();
  auto engine = std::make_unique<rfsp::Engine>(program, options);
  clock.engine_ctor(begin, now_ns());
  return engine;
}

// Run the engine under `adversary`; when tracing, through a boundary
// wrapper that records the adversary span as `kind`, and fail the execution
// if the wrappers changed whether the engine skips cycle traces.
rfsp::RunResult run_engine(rfsp::Engine& engine, rfsp::Adversary& adversary,
                           Tracer* tracer, SpanKind kind, CaseRun& out) {
  if (tracer == nullptr) return engine.run(adversary);
  TracedAdversary outer(adversary, *tracer, kind, SpanKind::kRun, true);
  tracer->run_begin();
  rfsp::RunResult result = engine.run(outer);
  tracer->run_end();
  const bool fast_path = engine.batch_active() && !adversary.inspects_cycles();
  if (outer.saw_cycle_writes() == fast_path) {
    out.error = "tracing changed whether cycle traces are materialized";
  }
  return result;
}

// Call `fn`; when tracing, record it as a `kind` span of the case.
template <typename Fn>
decltype(auto) timed(Tracer* tracer, SpanKind kind, Fn&& fn) {
  if (tracer == nullptr) return fn();
  return tracer->timed(kind, fn);
}

// The adversary seen by a recording/plain wrapper: the fault model itself,
// wrapped for tracing as a non-boundary child span.
struct InnerAdversary {
  InnerAdversary(rfsp::Adversary& fault, Tracer* tracer, SpanKind parent) {
    if (tracer != nullptr) {
      traced.emplace(fault, *tracer, SpanKind::kDecide, parent, false);
    }
    adversary = traced ? &*traced : &fault;
  }
  std::optional<TracedAdversary> traced;
  rfsp::Adversary* adversary = nullptr;
};

// The program the engine sees: `program` itself, or its traced wrapper.
struct EngineProgram {
  EngineProgram(const rfsp::Program& program, Tracer* tracer) {
    if (tracer != nullptr) traced.emplace(program, *tracer);
    engine_program = traced ? &*traced : &program;
  }
  std::optional<TracedProgram> traced;
  const rfsp::Program* engine_program = nullptr;
};

void fill_from_run(CaseRun& out, const rfsp::RunResult& run,
                   const rfsp::Engine& engine) {
  out.tally = run.tally;
  out.batch_active = engine.batch_active();
  out.hash = fnv1a(engine.memory().words());
  if (!run.goal_met) out.error = "goal not met";
  for (const rfsp::ThreadProfile& t : run.thread_profile) {
    out.pool_busy_ns += t.busy_ns;
    out.pool_idle_ns += t.idle_ns;
  }
  out.pool_commit_wait_ns = run.commit_wait_ns;
}

// --- Write-All cases (wa-batch, wa-threads) ---------------------------------

CaseRun run_writeall_case(rfsp::WriteAllAlgo algo, Addr n, unsigned threads,
                          Tracer* tracer) {
  CaseRun out;
  CaseClock clock(tracer);
  const auto program = rfsp::make_writeall(algo, {.n = n, .p = kWaP});
  const EngineProgram engine_program(*program, tracer);
  rfsp::EngineOptions options;
  options.batch = true;
  options.cycle_threads = threads;
  options.profile_threads = tracer != nullptr && threads > 1;
  rfsp::NoFailures none;
  auto engine = make_engine(*engine_program.engine_program, options, clock);
  clock.end_setup();
  const rfsp::RunResult run =
      run_engine(*engine, none, tracer, SpanKind::kDecide, out);
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  out.pool = threads > 1;
  if (!program->solved(engine->memory())) out.error = "x[] not all written";
  return out;
}

// --- wa-storm ---------------------------------------------------------------

// What the recording case hands to the replay and resume cases of the same
// round.
struct StormShared {
  bool have_plain = false;
  WorkTally plain;
  std::uint64_t plain_hash = 0;
  bool have_recorded = false;
  WorkTally recorded;
  std::uint64_t recorded_hash = 0;
  rfsp::FaultSchedule schedule;
  std::vector<std::string> checkpoints;
  std::string trace;
};

rfsp::EngineOptions storm_options() {
  rfsp::EngineOptions options;
  options.batch = true;
  return options;
}

std::unique_ptr<rfsp::WriteAllProgram> storm_program() {
  return rfsp::make_writeall(rfsp::WriteAllAlgo::kCombinedVX,
                             {.n = kStormN, .p = kStormP});
}

CaseRun storm_stalker(std::uint64_t, StormShared&, Tracer* tracer) {
  CaseRun out;
  CaseClock clock(tracer);
  const rfsp::AlgX program(
      {.n = kStormStalkerN, .p = static_cast<Pid>(kStormStalkerN)});
  const EngineProgram engine_program(program, tracer);
  rfsp::PostOrderStalker stalker(program.layout());
  auto engine = make_engine(*engine_program.engine_program, {}, clock);
  clock.end_setup();
  const rfsp::RunResult run =
      run_engine(*engine, stalker, tracer, SpanKind::kDecide, out);
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  if (!program.solved(engine->memory())) out.error = "x[] not all written";
  return out;
}

CaseRun storm_plain(std::uint64_t seed, StormShared& shared, Tracer* tracer) {
  CaseRun out;
  CaseClock clock(tracer);
  const auto program = storm_program();
  const EngineProgram engine_program(*program, tracer);
  rfsp::RandomAdversary random(seed, kStorm);
  auto engine =
      make_engine(*engine_program.engine_program, storm_options(), clock);
  clock.end_setup();
  const rfsp::RunResult run =
      run_engine(*engine, random, tracer, SpanKind::kDecide, out);
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  if (!program->solved(engine->memory())) out.error = "x[] not all written";
  shared.have_plain = true;
  shared.plain = out.tally;
  shared.plain_hash = out.hash;
  return out;
}

CaseRun storm_record(std::uint64_t seed, StormShared& shared,
                     Tracer* tracer) {
  CaseRun out;
  CaseClock clock(tracer);
  shared.have_recorded = false;
  shared.schedule = {};
  shared.checkpoints.clear();
  const auto program = storm_program();
  const EngineProgram engine_program(*program, tracer);
  rfsp::RandomAdversary random(seed, kStorm);
  InnerAdversary inner(random, tracer, SpanKind::kRecord);
  rfsp::RecordingAdversary recording(*inner.adversary, shared.schedule);
  std::ostringstream trace_bytes;
  rfsp::BinaryTraceWriter writer(trace_bytes);
  std::optional<TracedSink> traced_sink;
  if (tracer != nullptr) traced_sink.emplace(writer, *tracer);
  rfsp::EngineOptions options = storm_options();
  options.sink = traced_sink ? static_cast<rfsp::TraceSink*>(&*traced_sink)
                             : &writer;
  options.checkpoint_every = kStormCheckpointEvery;
  options.on_checkpoint = [&](const rfsp::EngineCheckpoint& cp) {
    const std::uint64_t start = now_ns();
    shared.checkpoints.push_back(rfsp::checkpoint_to_json(cp));
    if (tracer != nullptr) {
      tracer->leaf(SpanKind::kCheckpointEncode, SpanKind::kCommit,
                   tracer->commit_slot(), start, now_ns(), 1);
    }
  };
  auto engine = make_engine(*engine_program.engine_program, options, clock);
  clock.end_setup();
  const rfsp::RunResult run =
      run_engine(*engine, recording, tracer, SpanKind::kRecord, out);
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  shared.trace = trace_bytes.str();
  out.trace_bytes = shared.trace.size();
  out.checkpoints = shared.checkpoints.size();
  for (const std::string& cp : shared.checkpoints) {
    out.checkpoint_bytes += cp.size();
  }
  if (!program->solved(engine->memory())) out.error = "x[] not all written";
  if (!shared.have_plain || shared.plain != out.tally ||
      shared.plain_hash != out.hash) {
    out.error = "recorded run differs from the plain run";
  }
  if (shared.checkpoints.size() < 2) out.error = "fewer than 2 checkpoints";
  shared.have_recorded = out.error.empty();
  shared.recorded = out.tally;
  shared.recorded_hash = out.hash;
  return out;
}

CaseRun storm_replay(std::uint64_t, StormShared& shared, Tracer* tracer) {
  if (!shared.have_recorded) throw std::runtime_error("no recorded run");
  CaseRun out;
  CaseClock clock(tracer);
  const auto program = storm_program();
  const EngineProgram engine_program(*program, tracer);
  auto engine =
      make_engine(*engine_program.engine_program, storm_options(), clock);
  clock.end_setup();
  const std::string jsonl = timed(tracer, SpanKind::kScheduleEncode, [&] {
    return rfsp::schedule_to_jsonl(shared.schedule);
  });
  rfsp::ReplayAdversary replay(timed(tracer, SpanKind::kScheduleDecode, [&] {
    return rfsp::schedule_from_jsonl(jsonl);
  }));
  const rfsp::RunResult run =
      run_engine(*engine, replay, tracer, SpanKind::kReplayDecide, out);
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  out.schedule_bytes = jsonl.size();
  if (!program->solved(engine->memory())) out.error = "x[] not all written";
  if (out.tally != shared.recorded || out.hash != shared.recorded_hash) {
    out.error = "replay differs from the recorded run";
  }
  return out;
}

CaseRun storm_resume(std::uint64_t seed, StormShared& shared,
                     Tracer* tracer) {
  if (!shared.have_recorded) throw std::runtime_error("no recorded run");
  CaseRun out;
  CaseClock clock(tracer);
  const auto program = storm_program();
  const EngineProgram engine_program(*program, tracer);
  rfsp::RandomAdversary random(seed, kStorm);
  auto engine =
      make_engine(*engine_program.engine_program, storm_options(), clock);
  clock.end_setup();
  const std::string& middle = shared.checkpoints[shared.checkpoints.size() / 2];
  const rfsp::EngineCheckpoint cp = timed(
      tracer, SpanKind::kCheckpointDecode,
      [&] { return rfsp::checkpoint_from_json(middle); });
  timed(tracer, SpanKind::kRestore, [&] { engine->restore(cp, &random); });
  const rfsp::RunResult run =
      run_engine(*engine, random, tracer, SpanKind::kDecide, out);
  rfsp::StreamAggregator aggregator;
  timed(tracer, SpanKind::kTraceDecode, [&] {
    std::istringstream in(shared.trace);
    rfsp::BinaryTraceReader reader(in);
    return rfsp::replay_trace(reader, aggregator);
  });
  clock.finish(out);
  fill_from_run(out, run, *engine);
  out.cycles = run.tally.attempted_work - cp.tally.attempted_work;
  out.slots = run.tally.slots - cp.tally.slots;
  if (!program->solved(engine->memory())) out.error = "x[] not all written";
  if (out.tally != shared.recorded || out.hash != shared.recorded_hash) {
    out.error = "resumed run differs from the recorded run";
  }
  if (aggregator.tally() != shared.recorded) {
    out.error = "decoded trace tally differs from the engine's";
  }
  if (const auto problems = aggregator.check(); !problems.empty()) {
    out.error = "decoded trace fails check(): " + problems.front();
  }
  return out;
}

// --- sim-storm --------------------------------------------------------------

CaseRun run_sim_case(const std::function<std::unique_ptr<rfsp::SimProgram>()>&
                         make_program,
                     Pid physical, std::uint64_t adversary_seed,
                     Tracer* tracer) {
  CaseRun out;
  CaseClock clock(tracer);
  const std::unique_ptr<rfsp::SimProgram> program = make_program();
  std::optional<TracedSimProgram> traced_sim;
  if (tracer != nullptr) traced_sim.emplace(*program, *tracer);
  const rfsp::SimProgram& sim =
      traced_sim ? static_cast<const rfsp::SimProgram&>(*traced_sim)
                 : *program;
  const rfsp::SimLayout layout(sim, physical);
  const std::unique_ptr<rfsp::Program> outer = rfsp::make_simulation_program(
      sim, layout, rfsp::SimInner::kCombinedVX);
  const EngineProgram engine_program(*outer, tracer);
  // The machine simulate() builds: 5-read update cycles (the embedded
  // Write-All cycle plus the phase-word poll). batch is requested so the
  // case picks up simulation kernels once the executor offers them.
  rfsp::EngineOptions options;
  options.read_budget = 5;
  options.write_budget = 2;
  options.batch = true;
  rfsp::RandomAdversary random(adversary_seed, kStorm);
  auto engine = make_engine(*engine_program.engine_program, options, clock);
  clock.end_setup();
  const rfsp::RunResult run =
      run_engine(*engine, random, tracer, SpanKind::kDecide, out);
  clock.finish(out);
  out.tally = run.tally;
  out.batch_active = engine->batch_active();
  out.cycles = run.tally.attempted_work;
  out.slots = run.tally.slots;
  std::vector<Word> memory(layout.data_cells);
  for (Addr i = 0; i < layout.data_cells; ++i) {
    memory[i] = engine->memory().read(layout.data + i);
  }
  out.hash = fnv1a(memory);
  out.passes = rfsp::phase_pass(engine->memory().read(layout.phase));
  out.useful_steps = program->steps() * program->processors();
  if (!run.goal_met) out.error = "simulation did not complete";
  if (memory != rfsp::reference_run(*program)) {
    out.error = "simulated memory differs from reference_run";
  }
  return out;
}

CaseRun sim_prefix(std::uint64_t seed, Pid n, Pid p, std::uint64_t salt,
                   Tracer* tracer) {
  return run_sim_case(
      [&] {
        return std::make_unique<rfsp::PrefixSumProgram>(
            random_words(n, seed, salt, Word{1} << 20));
      },
      p, seed * 7 + salt, tracer);
}

CaseRun sim_matmul(std::uint64_t seed, Tracer* tracer) {
  const std::size_t cells = std::size_t{kSimMatM} * kSimMatM;
  return run_sim_case(
      [&] {
        return std::make_unique<rfsp::MatMulProgram>(
            random_words(cells, seed, 31, 1 << 10),
            random_words(cells, seed, 37, 1 << 10), kSimMatM);
      },
      kSimMatP, seed * 7 + 3, tracer);
}

// --- Workloads --------------------------------------------------------------

struct CaseDef {
  std::string name;
  bool seed_dependent = false;
  std::function<CaseRun(Tracer*)> run;
};

struct Workload {
  std::vector<CaseDef> cases;
  StormShared storm;  // wa-storm's per-round hand-over
};

unsigned pool_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, n));
}

std::vector<CaseDef> writeall_cases(unsigned threads) {
  using rfsp::WriteAllAlgo;
  std::vector<CaseDef> cases;
  const std::pair<const char*, WriteAllAlgo> algos[] = {
      {"W", WriteAllAlgo::kW},
      {"V", WriteAllAlgo::kV},
      {"X", WriteAllAlgo::kX},
      {"VX", WriteAllAlgo::kCombinedVX}};
  for (const auto& [name, algo] : algos) {
    const Addr n = algo == WriteAllAlgo::kX ? kWaNX : kWaN;
    cases.push_back({name, false, [algo, n, threads](Tracer* tracer) {
                       return run_writeall_case(algo, n, threads, tracer);
                     }});
  }
  return cases;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& w) {
  if (name == "wa-batch") {
    w.cases = writeall_cases(1);
  } else if (name == "wa-threads") {
    w.cases = writeall_cases(pool_threads());
  } else if (name == "wa-storm") {
    using Fn = CaseRun (*)(std::uint64_t, StormShared&, Tracer*);
    const std::tuple<const char*, bool, Fn> storm[] = {
        {"storm.x-stalker", false, storm_stalker},
        {"storm.vx-plain", true, storm_plain},
        {"storm.vx-record", true, storm_record},
        {"storm.vx-replay", true, storm_replay},
        {"storm.vx-resume", true, storm_resume}};
    for (const auto& [case_name, seeded, fn] : storm) {
      w.cases.push_back({case_name, seeded, [fn, seed, &w](Tracer* tracer) {
                           return fn(seed, w.storm, tracer);
                         }});
    }
  } else if (name == "sim-storm") {
    w.cases = {
        {"sim.prefix-sum", true,
         [seed](Tracer* t) {
           return sim_prefix(seed, kSimPrefixN, kSimPrefixN, 11, t);
         }},
        {"sim.prefix-sum-p28", true,
         [seed](Tracer* t) {
           return sim_prefix(seed, kSimCorN, kSimCorP, 13, t);
         }},
        {"sim.matmul", true, [seed](Tracer* t) { return sim_matmul(seed, t); }},
    };
  } else {
    return false;
  }
  return true;
}

// Every case name any workload runs, for the case.<name>.run_s metrics.
const char* const kAllCases[] = {
    "W",
    "V",
    "X",
    "VX",
    "storm.x-stalker",
    "storm.vx-plain",
    "storm.vx-record",
    "storm.vx-replay",
    "storm.vx-resume",
    "sim.prefix-sum",
    "sim.prefix-sum-p28",
    "sim.matmul"};

// --- Driver -----------------------------------------------------------------

struct CaseStats {
  std::uint64_t executions = 0;
  std::uint64_t failed = 0;
  bool have_reference = false;
  CaseRun reference;  // first successful untraced execution
  std::vector<double> untraced_run_s;
  std::vector<std::string> errors;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: rfsp_bench --workload <wa-batch|wa-threads|wa-storm|"
               "sim-storm> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <file>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else {
        usage("bad argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

class Runner {
 public:
  Runner(const Options& opt, Workload& workload)
      : opt_(opt), workload_(workload), stats_(workload.cases.size()) {}

  // One round: every case once, in order. Returns the executions.
  std::vector<CaseRun> round(Tracer* tracer) {
    std::vector<CaseRun> runs;
    for (std::size_t i = 0; i < workload_.cases.size(); ++i) {
      const std::uint32_t id = next_case_id_++;
      if (tracer != nullptr) tracer->begin_case(id);
      CaseRun run;
      try {
        run = workload_.cases[i].run(tracer);
      } catch (const std::exception& e) {
        run.error = std::string("exception: ") + e.what();
      }
      check(i, run, tracer != nullptr);
      if (tracer != nullptr) traced_execs_[id] = {i, run.pool};
      runs.push_back(std::move(run));
    }
    return runs;
  }

  // Determinism across rounds, and (traced) wrapper transparency: every
  // execution must reproduce the case's first untraced execution.
  void check(std::size_t i, CaseRun& run, bool traced) {
    CaseStats& s = stats_[i];
    if (run.error.empty() && s.have_reference) {
      const CaseRun& ref = s.reference;
      if (run.tally != ref.tally || run.hash != ref.hash) {
        run.error = traced ? "traced run differs from the untraced run"
                           : "run differs from an earlier round";
      } else if (run.batch_active != ref.batch_active) {
        run.error = "tracing changed batch_active()";
      }
    }
    if (run.error.empty() && !traced && !s.have_reference) {
      s.have_reference = true;
      s.reference = run;
    }
    ++s.executions;
    if (!run.error.empty()) {
      ++s.failed;
      if (s.errors.size() < 3) s.errors.push_back(run.error);
    }
    if (!traced && run.error.empty()) s.untraced_run_s.push_back(run.run_s);
  }

  int main() {
    const std::uint64_t start = now_ns();
    const std::uint64_t budget_ns =
        static_cast<std::uint64_t>(opt_.seconds * 1e9);
    std::vector<std::vector<CaseRun>> untraced;
    std::vector<std::vector<CaseRun>> traced;
    Tracer tracer;
    do {
      untraced.push_back(round(nullptr));
      if (opt_.trace) {
        traced.push_back(round(&tracer));
      }
    } while (now_ns() - start < budget_ns);

    std::vector<Metric> metrics;
    if (opt_.trace) {
      const std::vector<Span> spans = tracer.spans();
      if (!opt_.spans_out.empty() && !write_spans(opt_.spans_out, spans)) {
        std::cerr << "warning: cannot write " << opt_.spans_out << "\n";
      }
      const double coverage = check_coverage(spans);
      traced_metrics(untraced, traced, spans, tracer.slot_intervals(),
                     metrics);
      metrics.push_back({"trace.span_coverage", coverage, "ratio"});
    } else {
      untraced_metrics(untraced, metrics);
    }
    print(metrics);
    return 0;
  }

 private:
  // Per-case medians over the rounds, summed over the workload's cases: a
  // round disturbed by the host moves one sample of each case, not the
  // result.
  void untraced_metrics(const std::vector<std::vector<CaseRun>>& rounds,
                        std::vector<Metric>& metrics) const {
    double cycles = 0, run_s = 0, setup_s = 0;
    for (std::size_t i = 0; i < workload_.cases.size(); ++i) {
      std::vector<double> case_cycles, case_run, case_setup;
      for (const auto& r : rounds) {
        case_cycles.push_back(static_cast<double>(r[i].cycles));
        case_run.push_back(r[i].run_s);
        case_setup.push_back(r[i].setup_s);
      }
      cycles += median(case_cycles);
      run_s += median(case_run);
      setup_s += median(case_setup);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.push_back({"cycles_per_s", run_s > 0 ? cycles / run_s : 0, "1/s"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"});
  }

  // Self-test: the slot-phase spans (cycle, decide, commit) must cover each
  // traced Engine::run; an execution they leave uncovered fails. Returns the
  // covered share over all traced runs.
  double check_coverage(const std::vector<Span>& spans) {
    std::map<std::uint32_t, std::pair<double, double>> runs;  // run, phases
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kRun) {
        runs[s.case_id].first += static_cast<double>(s.busy_ns);
      } else if (s.parent == SpanKind::kRun) {
        runs[s.case_id].second += static_cast<double>(s.busy_ns);
      }
    }
    double run_total = 0, covered = 0;
    for (const auto& [id, run] : runs) {
      run_total += run.first;
      covered += run.second;
      const double share = run.second / run.first;
      if (share < 1.0 - kCoverageTolerance || share > 1.0 + 1e-9) {
        CaseStats& stats = stats_[traced_execs_.at(id).case_index];
        ++stats.failed;
        stats.errors.push_back("slot-phase spans do not cover Engine::run");
      }
    }
    return run_total > 0 ? covered / run_total : 0;
  }

  void traced_metrics(const std::vector<std::vector<CaseRun>>& untraced,
                      const std::vector<std::vector<CaseRun>>& traced,
                      const std::vector<Span>& spans,
                      std::vector<std::uint64_t> intervals,
                      std::vector<Metric>& metrics) const {
    const double rounds = static_cast<double>(traced.size());
    constexpr std::size_t K = static_cast<std::size_t>(SpanKind::kCount);
    double busy[K] = {}, child_busy[K] = {}, count[K] = {}, units[K] = {};
    // Pool parallelism is taken over the pool cases' cycle phases only.
    double pool_kernel = 0, pool_cycle = 0;
    for (const Span& s : spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      busy[k] += static_cast<double>(s.busy_ns);
      count[k] += static_cast<double>(s.count);
      units[k] += static_cast<double>(s.units);
      if (s.kind != SpanKind::kCase) {
        child_busy[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.busy_ns);
      }
      if (traced_execs_.at(s.case_id).pool) {
        if (s.kind == SpanKind::kKernel) {
          pool_kernel += static_cast<double>(s.busy_ns);
        } else if (s.kind == SpanKind::kCycle) {
          pool_cycle += static_cast<double>(s.busy_ns);
        }
      }
    }
    auto per_round = [&](double v) { return rounds > 0 ? v / rounds : 0; };
    auto at = [](const double* a, SpanKind k) {
      return a[static_cast<std::size_t>(k)];
    };
    auto self = [&](SpanKind k) {
      return per_round(at(busy, k) - at(child_busy, k));
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };

    // Model counts and layer counters from the traced executions.
    WorkTally sum;
    double slots = 0, cycles = 0, batch_active = 0, executions = 0;
    double passes = 0, useful_steps = 0, schedule_bytes = 0,
           checkpoint_bytes = 0, checkpoints = 0, trace_bytes = 0;
    double pool_busy = 0, pool_idle = 0, pool_wait = 0;
    double failed = 0, attempted = 0;
    std::uint64_t peak_live = 0;
    for (const auto& r : traced) {
      for (const CaseRun& c : r) {
        sum.completed_work += c.tally.completed_work;
        sum.attempted_work += c.tally.attempted_work;
        sum.failures += c.tally.failures;
        sum.restarts += c.tally.restarts;
        peak_live = std::max(peak_live, c.tally.peak_live);
        slots += static_cast<double>(c.slots);
        cycles += static_cast<double>(c.cycles);
        batch_active += c.batch_active ? 1 : 0;
        executions += 1;
        passes += static_cast<double>(c.passes);
        useful_steps += static_cast<double>(c.useful_steps);
        schedule_bytes += static_cast<double>(c.schedule_bytes);
        checkpoint_bytes += static_cast<double>(c.checkpoint_bytes);
        checkpoints += static_cast<double>(c.checkpoints);
        trace_bytes += static_cast<double>(c.trace_bytes);
        pool_busy += static_cast<double>(c.pool_busy_ns);
        pool_idle += static_cast<double>(c.pool_idle_ns);
        pool_wait += static_cast<double>(c.pool_commit_wait_ns);
      }
    }
    for (const CaseStats& s : stats_) {
      failed += static_cast<double>(s.failed);
      attempted += static_cast<double>(s.executions);
    }
    // Round wall times for the tracing overhead.
    auto round_times = [](const std::vector<std::vector<CaseRun>>& rs) {
      std::vector<double> t;
      for (const auto& r : rs) {
        double s = 0;
        for (const CaseRun& c : r) s += c.run_s;
        t.push_back(s);
      }
      return t;
    };
    const double untraced_round = median(round_times(untraced));
    const double traced_round = median(round_times(traced));

    const double cycle_ns = per_round(at(busy, SpanKind::kCycle));
    const double commit_ns = self(SpanKind::kCommit);
    const double kernel_ns = per_round(at(busy, SpanKind::kKernel));
    const double lanes = per_round(at(units, SpanKind::kKernel));
    const double decide_ns = self(SpanKind::kDecide);
    const double sink_ns = per_round(at(busy, SpanKind::kSink));
    const double events = per_round(at(units, SpanKind::kSink));
    const double step_calls = per_round(at(count, SpanKind::kStep));
    const double r_slots = per_round(slots);
    const double r_cycles = per_round(cycles);

    auto add = [&](const std::string& name, double value, const char* unit) {
      metrics.push_back({name, value, unit});
    };
    add("pram.setup_ns", per_round(at(busy, SpanKind::kEngineCtor)), "ns");
    add("pram.cycle_ns", cycle_ns, "ns");
    add("pram.cycle_ns_per_cycle", ratio(cycle_ns, r_cycles), "ns");
    add("pram.commit_ns", commit_ns, "ns");
    add("pram.commit_ns_per_slot", ratio(commit_ns, r_slots), "ns");
    add("pram.slot_us_p50", percentile(intervals, 0.50) / 1e3, "us");
    add("pram.slot_us_p99", percentile(intervals, 0.99) / 1e3, "us");
    add("pram.slot_samples", static_cast<double>(intervals.size()), "count");
    add("pram.pool_busy_ns", per_round(pool_busy), "ns");
    add("pram.pool_idle_ns", per_round(pool_idle), "ns");
    add("pram.pool_commit_wait_ns", per_round(pool_wait), "ns");
    add("pram.pool_parallelism", ratio(pool_kernel, pool_cycle), "ratio");
    add("pram.batch_active", ratio(batch_active, executions), "ratio");
    add("writeall.kernel_ns", kernel_ns, "ns");
    add("writeall.kernel_calls", per_round(at(count, SpanKind::kKernel)),
        "count");
    add("writeall.kernel_lanes", lanes, "count");
    add("writeall.kernel_ns_per_lane", ratio(kernel_ns, lanes), "ns");
    add("fault.decide_ns", decide_ns, "ns");
    add("fault.decide_ns_per_slot",
        ratio(decide_ns, per_round(at(count, SpanKind::kDecide))), "ns");
    add("fault.failures", per_round(static_cast<double>(sum.failures)),
        "count");
    add("fault.restarts", per_round(static_cast<double>(sum.restarts)),
        "count");
    add("programs.step_ns", per_round(at(busy, SpanKind::kStep)), "ns");
    add("programs.step_calls", step_calls, "count");
    add("programs.useful_frac", ratio(per_round(useful_steps), step_calls),
        "ratio");
    add("sim.passes", per_round(passes), "count");
    add("replay.record_ns", self(SpanKind::kRecord), "ns");
    add("replay.replay_decide_ns", self(SpanKind::kReplayDecide), "ns");
    add("replay.schedule_encode_ns",
        per_round(at(busy, SpanKind::kScheduleEncode)), "ns");
    add("replay.schedule_decode_ns",
        per_round(at(busy, SpanKind::kScheduleDecode)), "ns");
    add("replay.schedule_bytes", per_round(schedule_bytes), "bytes");
    add("replay.checkpoint_encode_ns",
        per_round(at(busy, SpanKind::kCheckpointEncode)), "ns");
    add("replay.checkpoint_decode_ns",
        per_round(at(busy, SpanKind::kCheckpointDecode)), "ns");
    add("replay.checkpoint_bytes", per_round(checkpoint_bytes), "bytes");
    add("replay.checkpoints", per_round(checkpoints), "count");
    add("obs.sink_ns", sink_ns, "ns");
    add("obs.sink_ns_per_event", ratio(sink_ns, events), "ns");
    add("obs.events", events, "count");
    add("obs.trace_bytes", per_round(trace_bytes), "bytes");
    add("obs.decode_ns", per_round(at(busy, SpanKind::kTraceDecode)), "ns");
    add("pram.slots", r_slots, "count");
    add("pram.attempted_cycles", per_round(sum.attempted_work), "count");
    add("pram.completed_cycles", per_round(sum.completed_work), "count");
    add("pram.useful_frac",
        ratio(static_cast<double>(sum.completed_work),
              static_cast<double>(sum.attempted_work)),
        "ratio");
    add("pram.peak_live", static_cast<double>(peak_live), "count");
    add("trace.overhead_frac", ratio(traced_round, untraced_round) - 1,
        "ratio");
    add("failed_frac", ratio(failed, attempted), "ratio");
    for (const char* name : kAllCases) {
      double value = 0;
      for (std::size_t i = 0; i < workload_.cases.size(); ++i) {
        if (workload_.cases[i].name == name) {
          value = median(stats_[i].untraced_run_s);
        }
      }
      add(std::string("case.") + name + ".run_s", value, "s");
    }
  }

  void print(const std::vector<Metric>& metrics) {
    std::uint64_t attempted = 0, failed = 0;
    std::ostringstream os;
    os.precision(17);
    // This package never compiles with RFSP_NATIVE's -march=native.
    os << "{\"build\":{\"compiler\":\"" << RFSP_BENCH_COMPILER
       << "\",\"build_type\":\"" << RFSP_BENCH_BUILD_TYPE
       << "\",\"rfsp_native\":false},\"cases\":{";
    for (std::size_t i = 0; i < workload_.cases.size(); ++i) {
      const CaseStats& s = stats_[i];
      const std::uint64_t case_failed = std::min(s.failed, s.executions);
      attempted += s.executions;
      failed += case_failed;
      os << (i > 0 ? "," : "") << '"' << workload_.cases[i].name
         << "\":{\"executions\":" << s.executions
         << ",\"failed\":" << case_failed << ",\"seed_dependent\":"
         << (workload_.cases[i].seed_dependent ? "true" : "false");
      if (s.have_reference) {
        const WorkTally& t = s.reference.tally;
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(s.reference.hash));
        os << ",\"S\":" << t.completed_work
           << ",\"S_prime\":" << t.attempted_work
           << ",\"F\":" << t.pattern_size() << ",\"slots\":" << t.slots
           << ",\"memory_fnv1a\":\"" << hash << '"';
      }
      os << ",\"errors\":[";
      for (std::size_t e = 0; e < s.errors.size(); ++e) {
        os << (e > 0 ? "," : "") << '"' << json_escape(s.errors[e]) << '"';
      }
      os << "]}";
    }
    os << "},\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i > 0 ? "," : "") << '"' << metrics[i].name
         << "\":{\"value\":" << metrics[i].value << ",\"unit\":\""
         << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

  const Options& opt_;
  Workload& workload_;
  std::vector<CaseStats> stats_;
  std::uint32_t next_case_id_ = 1;
  struct TracedExec {
    std::size_t case_index = 0;
    bool pool = false;
  };
  std::map<std::uint32_t, TracedExec> traced_execs_;  // by case id
};

}  // namespace
}  // namespace rfsp_bench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises after
  // the first large free, so later rounds would reuse warm heap pages while
  // the first pays page faults; pinned, every case maps (and faults in) its
  // memory afresh, as a process running one case does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const rfsp_bench::Options opt = rfsp_bench::parse_args(argc, argv);
  rfsp_bench::Workload workload;
  if (!rfsp_bench::make_workload(opt.workload, opt.seed, workload)) {
    rfsp_bench::usage("unknown workload " + opt.workload);
  }
  rfsp_bench::Runner runner(opt, workload);
  return runner.main();
}
