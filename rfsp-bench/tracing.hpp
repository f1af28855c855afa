// Span tracing for the benchmark's traced run, measured from the outside.
//
// Nothing here reaches into the library: every span is recorded by a
// forwarding wrapper that sits between the engine and one module's public
// interface (Program/ProcessorState/BatchKernel for `writeall`,
// SimProgram for `programs`, Adversary for `fault` and `replay`,
// TraceSink for `obs`) or by a timer around a free function call.
//
// The engine's slot phases are located without a clock read per update
// cycle. The first wrapped cycle or kernel call of a slot (detected from
// CycleContext::slot / BatchContext::slot) marks the start of the slot's
// cycle phase; the outermost adversary wrapper's decide entry ends it and
// its exit starts the commit phase, which runs until the next slot's first
// cycle (or until Engine::run returns). So per slot:
//
//   pram.cycle   first cycle/kernel entry  -> decide entry
//   <adversary>  decide entry              -> decide exit
//   pram.commit  decide exit               -> next slot's first cycle
//
// plus one slot-less pram.commit span from Engine::run's entry to the first
// cycle. The phases tile the run only if every wrapper marks its calls; a
// cycle or kernel call the wrappers miss leaves a stale cycle start, which
// the benchmark's coverage self-test catches.
//
// High-frequency leaf calls (kernel runs, simulated steps, sink events) are
// merged into one span per (thread, slot, kind) whose `busy_ns` is the sum
// of the calls' durations and `count` their number, so a traced run keeps
// O(slots) spans in memory. Spans are written out once, when the benchmark
// ends (see write_spans for the file layout).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "obs/trace.hpp"
#include "pram/program.hpp"
#include "pram/soa.hpp"
#include "sim/sim_program.hpp"

namespace rfsp_bench {

std::uint64_t now_ns();

enum class SpanKind : std::uint8_t {
  kCase,              // one case execution (root)
  kSetup,             // inputs, program and layout construction
  kEngineCtor,        // Engine constructor (child of kSetup)
  kRun,               // Engine::run
  kCycle,             // slot cycle phase (child of kRun)
  kDecide,            // fault: Adversary::decide of a fault model
  kRecord,            // replay: RecordingAdversary::decide
  kReplayDecide,      // replay: ReplayAdversary::decide
  kCommit,            // slot commit phase (child of kRun)
  kKernel,            // writeall: BatchKernel::run (merged per slot)
  kStep,              // programs: SimProgram::step (merged per slot)
  kSink,              // obs: TraceSink::on_event/flush (merged per slot)
  kCheckpointEncode,  // replay: checkpoint_to_json in on_checkpoint
  kCheckpointDecode,  // replay: checkpoint_from_json
  kRestore,           // pram: Engine::restore
  kScheduleEncode,    // replay: schedule_to_jsonl
  kScheduleDecode,    // replay: schedule_from_jsonl
  kTraceDecode,       // obs: replay_trace into a StreamAggregator
  kCount,
};

const char* span_name(SpanKind kind);

inline constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

struct Span {
  std::uint32_t case_id = 0;  // spans of one case execution share it
  SpanKind kind = SpanKind::kCase;
  SpanKind parent = SpanKind::kCase;
  std::uint16_t thread = 0;
  std::uint64_t slot = kNoSlot;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t busy_ns = 0;  // end - start unless merged
  std::uint64_t count = 0;    // calls merged into this span
  std::uint64_t units = 0;    // kernel lanes / sink events
};

// Process-wide span recorder. Slot-phase marks and unmerged spans come from
// the engine's calling thread; merged leaf spans may come from pool workers
// (each thread appends to its own buffer).
class Tracer {
 public:
  // Start a new case execution; its spans carry `case_id`.
  void begin_case(std::uint32_t case_id);

  // Engine::run boundaries (calling thread). run_end closes the last
  // slot's commit phase.
  void run_begin();
  void run_end();

  // Any thread: a wrapped update cycle or kernel call of `slot` starts.
  void cycle_entry(rfsp::Slot slot) {
    if (cycle_slot_.load(std::memory_order_relaxed) != slot &&
        cycle_slot_.exchange(slot, std::memory_order_relaxed) != slot) {
      cycle_start_.store(now_ns(), std::memory_order_relaxed);
    }
  }
  rfsp::Slot cycle_slot() const {
    return cycle_slot_.load(std::memory_order_relaxed);
  }
  rfsp::Slot commit_slot() const { return commit_slot_; }

  // Outermost adversary wrapper (calling thread).
  void decide_entry(rfsp::Slot slot, std::uint64_t t);
  void decide_exit(rfsp::Slot slot, std::uint64_t t);

  // Record an unmerged span on the calling thread.
  void span(SpanKind kind, SpanKind parent, std::uint64_t slot,
            std::uint64_t start, std::uint64_t end);
  // Record one leaf call, merged with the thread's previous span when that
  // has the same kind, slot and case.
  void leaf(SpanKind kind, SpanKind parent, std::uint64_t slot,
            std::uint64_t start, std::uint64_t end, std::uint64_t units);

  template <typename Fn>
  decltype(auto) timed(SpanKind kind, Fn&& fn) {
    struct Guard {
      Tracer& t;
      SpanKind kind;
      std::uint64_t start = now_ns();
      ~Guard() { t.span(kind, SpanKind::kCase, kNoSlot, start, now_ns()); }
    } guard{*this, kind};
    return fn();
  }

  // Host time between consecutive decide entries, in ns, in slot order.
  const std::vector<std::uint64_t>& slot_intervals() const {
    return slot_intervals_;
  }

  // Every span recorded so far, across threads.
  std::vector<Span> spans() const;

 private:
  struct ThreadLog {
    std::uint16_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadLog& local();

  std::atomic<std::uint32_t> case_id_{0};
  std::atomic<rfsp::Slot> cycle_slot_{kNoSlot};
  std::atomic<std::uint64_t> cycle_start_{0};
  rfsp::Slot commit_slot_ = kNoSlot;
  std::uint64_t commit_start_ = 0;
  std::uint64_t last_decide_entry_ = 0;
  std::uint64_t run_start_ = 0;
  std::vector<std::uint64_t> slot_intervals_;

  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Write `spans` as a flat little-endian binary file: the magic "RFSPSPAN",
// a u32 kind count and per kind its name (u8 length, bytes; indexed by
// SpanKind), then a u32 span count and per span the fields of Span in
// declaration order as u32, u8, u8, u16 and six u64. Returns false on I/O
// failure.
bool write_spans(const std::string& path, std::span<const Span> spans);

// --- Forwarding wrappers ----------------------------------------------------
// Each forwards every virtual of its interface to the wrapped object, so a
// traced run takes exactly the engine paths the untraced one does (batch
// fast path, goal tracking, checkpoint word streams, phase schedules).

class TracedAdversary final : public rfsp::Adversary {
 public:
  // `boundary`: this wrapper is the one the engine calls, so its decide
  // entry/exit delimit the slot phases.
  TracedAdversary(rfsp::Adversary& inner, Tracer& tracer, SpanKind kind,
                  SpanKind parent, bool boundary)
      : inner_(inner),
        tracer_(tracer),
        kind_(kind),
        parent_(parent),
        boundary_(boundary) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::FaultDecision decide(const rfsp::MachineView& view) override;
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_state(out);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    inner_.load_state(data);
  }

  // Boundary wrapper only: whether any started cycle of the run's first
  // kProbeSlots slots showed buffered writes through MachineView::trace.
  // Batched runs whose adversary ignores cycle internals never materialize
  // them, so this tells whether the engine took that fast path.
  bool saw_cycle_writes() const { return saw_cycle_writes_; }

 private:
  static constexpr int kProbeSlots = 64;

  rfsp::Adversary& inner_;
  Tracer& tracer_;
  SpanKind kind_;
  SpanKind parent_;
  bool boundary_;
  int probes_left_ = kProbeSlots;
  bool saw_cycle_writes_ = false;
};

class TracedProgram final : public rfsp::Program {
 public:
  TracedProgram(const rfsp::Program& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::Pid processors() const override { return inner_.processors(); }
  rfsp::Addr memory_size() const override { return inner_.memory_size(); }
  void init_memory(rfsp::SharedMemory& mem) const override {
    inner_.init_memory(mem);
  }
  std::unique_ptr<rfsp::ProcessorState> boot(rfsp::Pid pid) const override;
  bool goal(const rfsp::SharedMemory& mem) const override {
    return inner_.goal(mem);
  }
  std::optional<rfsp::GoalCells> goal_cells() const override {
    return inner_.goal_cells();
  }
  bool goal_cell_done(rfsp::Addr addr, rfsp::Word value) const override {
    return inner_.goal_cell_done(addr, value);
  }
  std::unique_ptr<rfsp::ProcessorState> load_state(
      rfsp::Pid pid, std::span<const rfsp::Word> data) const override;
  std::unique_ptr<rfsp::BatchKernel> batch_kernels() const override;
  bool oblivious() const override { return inner_.oblivious(); }
  std::optional<rfsp::PhaseSchedule> phase_schedule() const override {
    return inner_.phase_schedule();
  }

 private:
  const rfsp::Program& inner_;
  Tracer& tracer_;
};

class TracedSink final : public rfsp::TraceSink {
 public:
  TracedSink(rfsp::TraceSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_event(const rfsp::TraceEvent& event) override;
  void flush() override;

 private:
  rfsp::TraceSink& inner_;
  Tracer& tracer_;
};

class TracedSimProgram final : public rfsp::SimProgram {
 public:
  TracedSimProgram(const rfsp::SimProgram& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::Pid processors() const override { return inner_.processors(); }
  rfsp::Addr memory_cells() const override { return inner_.memory_cells(); }
  rfsp::Step steps() const override { return inner_.steps(); }
  void init(std::span<rfsp::Word> memory) const override {
    inner_.init(memory);
  }
  void step(rfsp::StepContext& ctx, rfsp::Pid j,
            rfsp::Step t) const override;
  unsigned registers() const override { return inner_.registers(); }
  unsigned max_loads() const override { return inner_.max_loads(); }
  unsigned max_stores() const override { return inner_.max_stores(); }
  rfsp::CrcwModel discipline() const override { return inner_.discipline(); }

 private:
  const rfsp::SimProgram& inner_;
  Tracer& tracer_;
};

}  // namespace rfsp_bench
