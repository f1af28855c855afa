// Batched cycle kernels for the Write-All algorithms (pram/soa.hpp).
//
// Each factory compiles one algorithm's update-cycle bodies into a
// BatchKernel: the same reads, the same buffered writes in the same program
// order, the same halting decisions, and checkpoint word streams
// byte-identical to the interpreter states' save_state/load_state — so a
// batched engine run is bit-for-bit indistinguishable from an interpreter
// run (same WorkTally, trace stream, and checkpoints).
//
// The combined algorithm reuses X's navigate body on odd slots and V's
// three-phase body on the even-slot virtual clock, exactly like
// CombinedState does; V and VX therefore share one lane implementation.
//
// The factories are reached through the Program::batch_kernels overrides of
// AlgW / AlgV / AlgX / CombinedVX (defined in kernels.cpp). Leaf tasks run
// on the batched backend only through their lane form (TaskSpec::run_lane)
// and only inside the task-mode lanes below: CombinedVX with such a task
// gets a task-mode kernel, V and X with any task, and every program whose
// task has no lane form, keep the interpreter.
#pragma once

#include <memory>
#include <optional>

#include "pram/soa.hpp"
#include "util/wordio.hpp"

namespace rfsp {

struct WriteAllConfig;
struct WLayout;
struct VLayout;
struct XLayout;
struct CombinedLayout;

// Algorithm W (count / alloc / work / update). W is standalone-only
// (no TaskSpec, stamp 0 — enforced by AlgW's constructor).
std::unique_ptr<BatchKernel> make_w_batch_kernel(const WriteAllConfig& config,
                                                 const WLayout& layout);

// Algorithm V (alloc / work / update on a stride-1 clock). Requires
// config.task == nullptr.
std::unique_ptr<BatchKernel> make_v_batch_kernel(const WriteAllConfig& config,
                                                 const VLayout& layout);

// Algorithm X (PID-bit descent). Requires config.task == nullptr.
std::unique_ptr<BatchKernel> make_x_batch_kernel(const WriteAllConfig& config,
                                                 const XLayout& layout);

// Combined V+X interleave (even slots V at stride 2, odd slots X; shared
// done flag). With a TaskSpec the kernel runs the task-mode lanes below;
// the task must then have a lane form.
std::unique_ptr<BatchKernel> make_vx_batch_kernel(const WriteAllConfig& config,
                                                  const CombinedLayout& layout);

// Per-slot memo for the allocation descent (W's rank split and V's PID
// split). Every lane at one progress-tree node with one live interval
// [lo, hi) computes the same unassigned counts and the same 64-bit split
// division — and lanes walk a group in ascending PID order, so equal keys
// arrive in long runs. A one-entry cache keyed on (node, lo, hi) therefore
// removes nearly every division (the single most expensive ALU op of the
// alloc slots) while staying bit-identical: the cached values are pure
// functions of the key and the slot-start memory.
struct AllocMemo {
  Addr node = 0;  // 0 = empty (tree node ids start at 1)
  Pid lo = 0;
  Pid hi = 0;
  Addr u = 0;   // unassigned leaves below `node`
  Addr rl = 0;  // real leaves below the left child
  Pid nl = 0;   // lanes sent left (meaningful only when u > 0)
};

// Task-mode lanes: the V and X halves of an embedded Write-All instance
// whose leaves are TaskSpec micro-cycles (§4.3), run through the task's
// lane form. They serve CombinedVX's task-mode kernel and the Theorem 4.1
// executor's kernel (sim/simulator.cpp). The bodies are per lane: the
// caller owns the lane loop and whatever it wraps around the instance, and
// a cycle returns false where the interpreter state's cycle() would — the
// instance is finished for this lane — instead of halting the lane.
//
// Lane state inside the caller's SoaStore: V's node / lo / hi / leaf at
// registers 0..3 (as in the task-free kernels), V's waiting flag at 4, X's
// mode / task leaf / task micro-cycle at 5..7, then one band
// (SoaStore::band) of 2·scratch_cap words holding V's scratch span and
// then X's. `scratch_cap` is the largest scratch_words() of any task the
// caller runs over the store (the executor alternates two); a lane's spans
// are the first scratch_words() words of each half. The save/load pairs
// read and write exactly AlgVState's and AlgXState's save_words streams.
class TaskLanes {
 public:
  static constexpr std::size_t kRegisters = 8;  // before the scratch band

  // `config.task` must have a lane form; the references must outlive this.
  TaskLanes(const WriteAllConfig& config, const CombinedLayout& layout,
            std::size_t scratch_cap);

  std::size_t registers() const { return kRegisters + 2 * scratch_cap_; }

  // The per-slot context of one lane loop: slot-start memory, the store,
  // and V's allocation memo, shared by the loop's lanes.
  struct Loop {
    std::span<const Word> mem;
    SoaStore& soa;
    AllocMemo memo{};
  };

  // A freshly constructed instance: V waiting, X navigating, both scratch
  // spans zero.
  void reset(SoaStore& soa, Pid pid) const;

  // One update cycle of lane `pid`'s instance at `slot`; false = instance
  // finished. V runs on a clock of `clock_stride` from `start` (as
  // AlgVState), the interleave runs V on even and X on odd slots after
  // `start` (as CombinedState).
  bool v_cycle(Loop& loop, Pid pid, Slot slot, Slot start, Slot clock_stride,
               LaneEmit& em) const;
  bool x_cycle(Loop& loop, Pid pid, LaneEmit& em) const;
  bool vx_cycle(Loop& loop, Pid pid, Slot slot, Slot start,
                LaneEmit& em) const;

  // AlgVState::save_words / load_words of a state built with `start` and
  // `clock_stride` (load_lane refuses other values), and AlgXState's.
  void save_v(const SoaStore& soa, Pid pid, Slot start, Slot clock_stride,
              WordWriter& w) const;
  void load_v(SoaStore& soa, Pid pid, Slot start, Slot clock_stride,
              WordReader& r) const;
  void save_x(const SoaStore& soa, Pid pid, WordWriter& w) const;
  void load_x(SoaStore& soa, Pid pid, WordReader& r) const;

 private:
  bool v_phase(Loop& loop, Pid pid, Slot phi, LaneEmit& em) const;

  std::span<Word> v_scratch(SoaStore& soa, Pid pid) const {
    return soa.band(kRegisters, 2 * scratch_cap_, pid).first(scratch_words_);
  }
  std::span<Word> x_scratch(SoaStore& soa, Pid pid) const {
    return soa.band(kRegisters, 2 * scratch_cap_, pid)
        .subspan(scratch_cap_, scratch_words_);
  }

  const WriteAllConfig& config_;
  const CombinedLayout& layout_;
  std::optional<Addr> done_;
  std::size_t scratch_cap_;
  std::size_t scratch_words_;
  unsigned task_cycles_;
};

}  // namespace rfsp
