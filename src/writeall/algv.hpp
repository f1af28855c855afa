// Algorithm V (§4.1): a modification of algorithm W of [KS 89] that
// tolerates restarts.
//
// V iterates three synchronized phases over a progress tree whose L ≈
// N/log N leaves each cover B ≈ log N array elements:
//
//   1' allocate processors top-down through the tree, divide-and-conquer by
//      permanent PID proportionally to the unvisited-leaf counts (this
//      replaces W's processor-enumeration phase, which restarts break);
//   2' do the work at the reached leaf (B elements);
//   3' update the progress counts bottom-up to the root.
//
// All three phases have fixed lengths known at "compile time", so every
// iteration occupies exactly T_iter consecutive slots. Because the machine
// is synchronous, a restarted processor reads the global clock, waits for
// the iteration wrap-around (the paper's iteration counter), and rejoins at
// the next phase-1' boundary; while waiting it watches the root so it can
// halt if the computation finishes.
//
// Completed work: S = O(N + P log²N) without restarts (Lemma 4.2) and
// S = O(N + P log²N + M log N) under any pattern of M failures/restarts
// (Theorem 4.3).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "util/bits.hpp"
#include "util/wordio.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

struct VLayout {
  VLayout(Addr x_base, Addr aux_base, Addr n, Pid p, unsigned task_cycles,
          Addr leaf_elems_override = 0);

  Addr n = 0;
  Pid p = 0;
  Addr elems_per_leaf = 0;  // B ≈ log2 N
  Addr leaves_real = 0;     // ⌈N/B⌉
  Addr leaves = 0;          // padded to a power of two
  unsigned depth = 0;       // log2(leaves)

  Addr x_base = 0;
  Addr c_base = 0;  // progress tree c[1 .. 2·leaves - 1]: visited-leaf counts

  // Fixed phase lengths (in slots) and the iteration length T_iter.
  Slot phase_alloc = 0;  // depth
  Slot phase_work = 0;   // B · (task_cycles + 1)
  Slot phase_update = 0; // depth + 1
  Slot iteration = 0;

  Addr x(Addr i) const { return x_base + i; }
  Addr c(Addr node) const { return c_base + TreeNav::pos(node); }
  Addr aux_end() const { return c_base + (2 * leaves - 1); }

  Addr leaf_node(Addr leaf) const { return leaves + leaf; }

  // Number of non-padding leaves below `node`. Inline: evaluated for both
  // children at every interior step of the allocation/update phases.
  Addr real_leaves_below(Addr node) const {
    const unsigned dv = floor_log2(node);
    const Addr first = (node << (depth - dv)) - leaves;
    const Addr count = Addr{1} << (depth - dv);
    if (first >= leaves_real) return 0;
    return std::min(first + count, leaves_real) - first;
  }
};

// Per-processor state machine; embeddable (stamp + done flag + start slot +
// clock stride) for the combined algorithm and the simulator.
class AlgVState final : public ProcessorState {
 public:
  AlgVState(const WriteAllConfig& config, const VLayout& layout, Pid pid,
            std::optional<Addr> done_flag = std::nullopt, Slot start_slot = 0,
            Slot clock_stride = 1);

  bool cycle(CycleContext& ctx) override;

  // Checkpoint support (docs/resilience.md): flat word-stream round-trip.
  // The composable pair (save_words/load_words) lets CombinedState and the
  // simulator embed V's words inside their own streams.
  bool save_state(std::vector<Word>& out) const override;
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

 private:
  bool alloc_cycle(CycleContext& ctx, Slot k);
  void work_cycle(CycleContext& ctx, Slot j);
  bool update_cycle(CycleContext& ctx, Slot m);

  // By reference: see AlgXState — the referents (program or simulator pass
  // block) outlive every state they boot.
  const WriteAllConfig& config_;
  const VLayout& layout_;
  Pid pid_;
  std::optional<Addr> done_flag_;
  Slot start_slot_;
  Slot stride_;

  // Private per-iteration context (recomputed every iteration; lost on
  // failure — the restarted processor waits for the next wrap-around).
  bool waiting_ = true;
  Addr node_ = 1;           // current tree node during phases 1'/3'
  Pid lo_ = 0, hi_ = 0;     // PID interval at node_ during phase 1'
  Addr leaf_ = 0;           // reached leaf index
  std::vector<Word> scratch_;
};

// Standalone Write-All program running algorithm V.
class AlgV final : public WriteAllProgram {
 public:
  explicit AlgV(WriteAllConfig config);

  std::string_view name() const override { return "V"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<ProcessorState> boot(Pid pid) const override;
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override;
  bool goal(const SharedMemory& mem) const override;
  Addr x_base() const override { return layout_.x_base; }

  // The fixed three-phase iteration: alloc / work / update, by slot mod
  // T_iter (observability attribution; see obs/phase.hpp).
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend (writeall/kernels.cpp); nullptr when a TaskSpec is
  // configured (task micro-cycles need the per-op CycleContext).
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the progress-tree root reaching the leaf total.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.c(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) ==
           static_cast<Word>(layout_.leaves_real);
  }

  const VLayout& layout() const { return layout_; }

 private:
  VLayout layout_;
};

}  // namespace rfsp
