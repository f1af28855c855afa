// Algorithm X (§4.2, Figures 2/3/5).
//
// Each processor independently searches for work in the smallest immediate
// subtree of a full binary progress tree d[1..2N-1] that still has work,
// descending by its PID bits at contested nodes, doing the work at leaves,
// and propagating "done" marks bottom-up. The traversal position w[PID]
// lives in shared memory, so a restarted processor resumes where it failed
// ([SS 83] action/recovery; Remark 6). Completed work is
// O(N · P^{log₂3 − 1 + δ}) for ANY failure/restart pattern (Lemma 4.6,
// Theorem 4.7) — bounded and sub-quadratic no matter what the adversary
// does — and Theorem 4.8 exhibits a pattern forcing Ω(N^{log₂3}) at P = N.
//
// One loop iteration of Figure 5 is one update cycle: at most 4 shared
// reads (w[PID]; d[where]; then either the leaf cell or both children) and
// 1–2 shared writes.
//
// Deviations from the paper's text, documented here:
//  * Figure 5 initializes w[PID] := 1 + PID, which for P = N scatters
//    processors over *internal* nodes; the prose and Figure 3 place them on
//    the first P leaves ("processors are assigned to the first P leaves").
//    We follow the prose: w[PID] := N + PID (or evenly spaced, Remark 5(i)).
//  * "Exited the tree" is encoded as w[PID] = 2N (instead of 0) because a
//    zero cell also means "never initialized" — a processor that failed
//    before completing its very first write must re-run initialization, not
//    halt. This is exactly the [SS 83] recovery distinction, packed into
//    one stable cell.
//  * Padded leaves (N rounded up to a power of two) and their ancestors are
//    recognized structurally (their element range lies beyond N) and treated
//    as done without extra initialization writes.
#pragma once

#include <optional>
#include <vector>

#include "util/rng.hpp"
#include "util/wordio.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

// Memory map of one algorithm-X instance. The x array can be shared with
// other algorithms (the combined algorithm of Theorem 4.9 interleaves V and
// X over one output array); the auxiliary region (d heap + w array) is
// private to this instance.
struct XLayout {
  XLayout(Addr x_base, Addr aux_base, Addr n, Pid p);

  Addr n = 0;      // real array size
  Addr n_pad = 0;  // padded to a power of two; the d heap has n_pad leaves
  unsigned height = 0;  // log2(n_pad)
  Pid p = 0;

  Addr x_base = 0;
  Addr d_base = 0;  // d[1 .. 2·n_pad - 1], 1-indexed logical ids
  Addr w_base = 0;  // w[0 .. p)

  Addr x(Addr i) const { return x_base + i; }
  Addr d(Addr node) const { return d_base + TreeNav::pos(node); }
  Addr w(Pid pid) const { return w_base + pid; }
  Addr aux_end() const { return w_base + p; }

  // Heap index of the leaf holding element i.
  Addr leaf(Addr i) const { return n_pad + i; }
  // The w-payload meaning "left the tree; the computation is finished".
  Word exited() const { return static_cast<Word>(2 * n_pad); }

  // Range [first, last) of elements below `node`; empty intersection with
  // [0, n) means the subtree is structurally done (padding). Inline: the
  // batched X kernel calls these once or twice per lane per slot, and an
  // out-of-line call was a measurable slice of the 2^24 headline row.
  Addr first_element(Addr node) const {
    const unsigned depth = floor_log2(node);
    return (node << (height - depth)) - n_pad;
  }
  Addr elements_below(Addr node) const {
    const unsigned depth = floor_log2(node);
    return Addr{1} << (height - depth);
  }
  bool structurally_done(Addr node) const {
    return first_element(node) >= n;
  }
};

// The per-processor state machine. Reusable in embedded contexts (the
// combined algorithm and the simulator): pass the epoch stamp via config
// and an optional done-flag cell written together with the root mark.
class AlgXState final : public ProcessorState {
 public:
  // How the traversal makes its free choices:
  //  * kPidBits — algorithm X: contested interior nodes resolve by the PID
  //    bit at the node's depth; done subtrees are climbed out of.
  //  * kRandom  — randomized descent: contested nodes flip a private coin.
  //  * kCoupon  — the ACC stand-in (§5, [MSP 90] "coupon clipping"):
  //    kRandom, plus a done node is escaped by a jump to a uniformly
  //    random leaf half the time (sampling fresh coupons) and a climb the
  //    other half (which preserves termination through the root).
  // Private generators are seeded from (config.seed, PID, boot slot), so a
  // restarted processor deterministically reseeds from data it still has.
  enum class Descent { kPidBits, kRandom, kCoupon };

  AlgXState(const WriteAllConfig& config, const XLayout& layout, Pid pid,
            std::optional<Addr> done_flag = std::nullopt,
            Descent descent = Descent::kPidBits);

  bool cycle(CycleContext& ctx) override;

  // Checkpoint support (docs/resilience.md): flat word-stream round-trip,
  // including the private RNG of the randomized descents.
  bool save_state(std::vector<Word>& out) const override;
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

 private:
  enum class Mode { kNavigate, kTask, kTaskDoneMark };

  bool navigate(CycleContext& ctx);
  Word initial_position(Slot slot) const;

  // References into the owning Program (or the simulator's per-pass block):
  // states are booted once per processor per restart, so copying the config
  // and layout into every state would dominate restart-heavy runs and bloat
  // the per-processor footprint the engine streams over each slot.
  const WriteAllConfig& config_;
  const XLayout& layout_;
  Pid pid_;
  std::optional<Addr> done_flag_;
  Descent descent_;

  Mode mode_ = Mode::kNavigate;
  Addr task_leaf_ = 0;   // heap position while in task mode
  unsigned task_k_ = 0;  // next micro-cycle
  std::vector<Word> scratch_;
  std::optional<Rng> rng_;  // lazily (re)seeded; kRandom descent only
};

// Standalone Write-All program running algorithm X.
class AlgX final : public WriteAllProgram {
 public:
  explicit AlgX(WriteAllConfig config);

  std::string_view name() const override { return "X"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<ProcessorState> boot(Pid pid) const override;
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override;
  bool goal(const SharedMemory& mem) const override;
  Addr x_base() const override { return layout_.x_base; }

  // X has no global phase structure (every decision is local): a single
  // "descend" phase, so per-phase breakdowns stay comparable across
  // algorithms and the sink still gets one phase event per run.
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend (writeall/kernels.cpp); nullptr when a TaskSpec is
  // configured (task micro-cycles need the per-op CycleContext).
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the root of the d heap turning non-zero.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.d(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) != 0;
  }

  const XLayout& layout() const { return layout_; }

 private:
  XLayout layout_;
};

}  // namespace rfsp
