#include "tracing.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <string_view>

namespace rfsp_bench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCase: return "case";
    case SpanKind::kSetup: return "case.setup";
    case SpanKind::kEngineCtor: return "pram.setup";
    case SpanKind::kRun: return "pram.run";
    case SpanKind::kCycle: return "pram.cycle";
    case SpanKind::kDecide: return "fault.decide";
    case SpanKind::kRecord: return "replay.record";
    case SpanKind::kReplayDecide: return "replay.replay_decide";
    case SpanKind::kCommit: return "pram.commit";
    case SpanKind::kKernel: return "writeall.kernel";
    case SpanKind::kStep: return "programs.step";
    case SpanKind::kSink: return "obs.sink";
    case SpanKind::kCheckpointEncode: return "replay.checkpoint_encode";
    case SpanKind::kCheckpointDecode: return "replay.checkpoint_decode";
    case SpanKind::kRestore: return "pram.restore";
    case SpanKind::kScheduleEncode: return "replay.schedule_encode";
    case SpanKind::kScheduleDecode: return "replay.schedule_decode";
    case SpanKind::kTraceDecode: return "obs.decode";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::begin_case(std::uint32_t case_id) {
  case_id_.store(case_id, std::memory_order_relaxed);
}

void Tracer::run_begin() {
  cycle_slot_.store(kNoSlot, std::memory_order_relaxed);
  last_decide_entry_ = 0;
  run_start_ = now_ns();
  // The run's prologue up to the first slot's first cycle (goal check, the
  // slot-0 checkpoint capture) is charged like a commit phase, slot-less.
  commit_slot_ = kNoSlot;
  commit_start_ = run_start_;
}

void Tracer::run_end() {
  const std::uint64_t t = now_ns();
  span(SpanKind::kCommit, SpanKind::kRun, commit_slot_, commit_start_, t);
  span(SpanKind::kRun, SpanKind::kCase, kNoSlot, run_start_, t);
}

void Tracer::decide_entry(rfsp::Slot slot, std::uint64_t t) {
  const std::uint64_t cycle_start =
      cycle_start_.load(std::memory_order_relaxed);
  span(SpanKind::kCommit, SpanKind::kRun, commit_slot_, commit_start_,
       cycle_start);
  span(SpanKind::kCycle, SpanKind::kRun, slot, cycle_start, t);
  if (last_decide_entry_ != 0) {
    slot_intervals_.push_back(t - last_decide_entry_);
  }
  last_decide_entry_ = t;
}

void Tracer::decide_exit(rfsp::Slot slot, std::uint64_t t) {
  commit_slot_ = slot;
  commit_start_ = t;
}

Tracer::ThreadLog& Tracer::local() {
  // One log per (tracer, thread). Pool workers live for one engine, so a
  // long run registers a few logs per case; the tracer owns them all.
  thread_local Tracer* owner = nullptr;
  thread_local ThreadLog* log = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->thread = static_cast<std::uint16_t>(logs_.size() - 1);
    log = logs_.back().get();
    owner = this;
  }
  return *log;
}

void Tracer::span(SpanKind kind, SpanKind parent, std::uint64_t slot,
                  std::uint64_t start, std::uint64_t end) {
  ThreadLog& log = local();
  log.spans.push_back({.case_id = case_id_.load(std::memory_order_relaxed),
                       .kind = kind,
                       .parent = parent,
                       .thread = log.thread,
                       .slot = slot,
                       .start_ns = start,
                       .end_ns = end,
                       .busy_ns = end - start,
                       .count = 1});
}

void Tracer::leaf(SpanKind kind, SpanKind parent, std::uint64_t slot,
                  std::uint64_t start, std::uint64_t end,
                  std::uint64_t units) {
  ThreadLog& log = local();
  const std::uint32_t case_id = case_id_.load(std::memory_order_relaxed);
  if (!log.spans.empty()) {
    Span& last = log.spans.back();
    if (last.kind == kind && last.slot == slot && last.case_id == case_id) {
      last.end_ns = end;
      last.busy_ns += end - start;
      last.count += 1;
      last.units += units;
      return;
    }
  }
  log.spans.push_back({.case_id = case_id,
                       .kind = kind,
                       .parent = parent,
                       .thread = log.thread,
                       .slot = slot,
                       .start_ns = start,
                       .end_ns = end,
                       .busy_ns = end - start,
                       .count = 1,
                       .units = units});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

bool write_spans(const std::string& path, std::span<const Span> spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  auto put = [&out](auto value) {
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));  // hosts are little-endian
    out.write(bytes, sizeof(value));
  };
  out.write("RFSPSPAN", 8);
  constexpr auto kinds = static_cast<std::uint32_t>(SpanKind::kCount);
  put(kinds);
  for (std::uint32_t k = 0; k < kinds; ++k) {
    const std::string_view name = span_name(static_cast<SpanKind>(k));
    put(static_cast<std::uint8_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  put(static_cast<std::uint32_t>(spans.size()));
  for (const Span& s : spans) {
    put(s.case_id);
    put(static_cast<std::uint8_t>(s.kind));
    put(static_cast<std::uint8_t>(s.parent));
    put(s.thread);
    put(s.slot);
    put(s.start_ns);
    put(s.end_ns);
    put(s.busy_ns);
    put(s.count);
    put(s.units);
  }
  out.flush();
  return static_cast<bool>(out);
}

// --- Wrappers ---------------------------------------------------------------

namespace {

class TracedState final : public rfsp::ProcessorState {
 public:
  TracedState(std::unique_ptr<rfsp::ProcessorState> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool cycle(rfsp::CycleContext& ctx) override {
    tracer_.cycle_entry(ctx.slot());
    return inner_->cycle(ctx);
  }
  bool save_state(std::vector<rfsp::Word>& out) const override {
    return inner_->save_state(out);
  }

 private:
  std::unique_ptr<rfsp::ProcessorState> inner_;
  Tracer& tracer_;
};

class TracedKernel final : public rfsp::BatchKernel {
 public:
  TracedKernel(std::unique_ptr<rfsp::BatchKernel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t registers() const override { return inner_->registers(); }
  std::uint32_t control_states() const override {
    return inner_->control_states();
  }
  void boot_lane(rfsp::SoaStore& soa, rfsp::Pid pid) const override {
    inner_->boot_lane(soa, pid);
  }
  void run(std::uint32_t ctrl, std::span<const rfsp::Pid> pids,
           const rfsp::BatchContext& ctx, rfsp::SoaStore& soa) const override {
    tracer_.cycle_entry(ctx.slot);
    const std::uint64_t start = now_ns();
    inner_->run(ctrl, pids, ctx, soa);
    tracer_.leaf(SpanKind::kKernel, SpanKind::kCycle, ctx.slot, start,
                 now_ns(), pids.size());
  }
  void save_lane(const rfsp::SoaStore& soa, rfsp::Pid pid,
                 std::vector<rfsp::Word>& out) const override {
    inner_->save_lane(soa, pid, out);
  }
  void load_lane(rfsp::SoaStore& soa, rfsp::Pid pid,
                 std::span<const rfsp::Word> data) const override {
    inner_->load_lane(soa, pid, data);
  }

 private:
  std::unique_ptr<rfsp::BatchKernel> inner_;
  Tracer& tracer_;
};

}  // namespace

rfsp::FaultDecision TracedAdversary::decide(const rfsp::MachineView& view) {
  const std::uint64_t start = now_ns();
  if (boundary_) tracer_.decide_entry(view.slot(), start);
  if (boundary_ && probes_left_ > 0) {
    --probes_left_;
    for (const rfsp::Pid pid : view.started_pids()) {
      if (!view.trace(pid).writes.empty()) saw_cycle_writes_ = true;
    }
  }
  rfsp::FaultDecision decision = inner_.decide(view);
  const std::uint64_t end = now_ns();
  tracer_.span(kind_, parent_, view.slot(), start, end);
  if (boundary_) tracer_.decide_exit(view.slot(), end);
  return decision;
}

std::unique_ptr<rfsp::ProcessorState> TracedProgram::boot(
    rfsp::Pid pid) const {
  return std::make_unique<TracedState>(inner_.boot(pid), tracer_);
}

std::unique_ptr<rfsp::ProcessorState> TracedProgram::load_state(
    rfsp::Pid pid, std::span<const rfsp::Word> data) const {
  std::unique_ptr<rfsp::ProcessorState> state = inner_.load_state(pid, data);
  if (state == nullptr) return nullptr;
  return std::make_unique<TracedState>(std::move(state), tracer_);
}

std::unique_ptr<rfsp::BatchKernel> TracedProgram::batch_kernels() const {
  std::unique_ptr<rfsp::BatchKernel> kernel = inner_.batch_kernels();
  if (kernel == nullptr) return nullptr;
  return std::make_unique<TracedKernel>(std::move(kernel), tracer_);
}

void TracedSink::on_event(const rfsp::TraceEvent& event) {
  const std::uint64_t start = now_ns();
  inner_.on_event(event);
  tracer_.leaf(SpanKind::kSink, SpanKind::kCommit, tracer_.commit_slot(),
               start, now_ns(), 1);
}

void TracedSink::flush() {
  const std::uint64_t start = now_ns();
  inner_.flush();
  tracer_.leaf(SpanKind::kSink, SpanKind::kCommit, tracer_.commit_slot(),
               start, now_ns(), 0);
}

void TracedSimProgram::step(rfsp::StepContext& ctx, rfsp::Pid j,
                            rfsp::Step t) const {
  // The executor discovers a step's read set by letting step throw, so the
  // span is recorded by a guard on the way out, without a catch.
  struct Guard {
    Tracer& tracer;
    std::uint64_t start = now_ns();
    ~Guard() {
      tracer.leaf(SpanKind::kStep, SpanKind::kCycle, tracer.cycle_slot(),
                  start, now_ns(), 1);
    }
  } guard{tracer_};
  inner_.step(ctx, j, t);
}

}  // namespace rfsp_bench
