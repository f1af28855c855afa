#include "writeall/algv.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// VLayout

VLayout::VLayout(Addr x_base_in, Addr aux_base, Addr n_in, Pid p_in,
                 unsigned task_cycles, Addr leaf_elems_override)
    : n(n_in), p(p_in) {
  RFSP_CHECK(n >= 1 && p >= 1);
  // B ≈ log2 N elements per leaf ("there are log N array elements per
  // leaf"), unless the caller overrides it for ablation. B is clamped to N
  // (a leaf cannot usefully cover more than the whole array). Note the
  // trade-off the override exposes: the iteration length grows with B, and
  // V only records progress when a processor survives a whole iteration —
  // oversized leaves make V unsurvivable under per-slot failure rates.
  elems_per_leaf =
      leaf_elems_override != 0
          ? std::min<Addr>(leaf_elems_override, n)
          : std::max<Addr>(1, floor_log2(std::max<Addr>(n, 2)));
  leaves_real = ceil_div(n, elems_per_leaf);
  leaves = ceil_pow2(leaves_real);
  depth = ceil_log2(leaves);
  x_base = x_base_in;
  c_base = aux_base;
  phase_alloc = depth;
  phase_work = elems_per_leaf * (static_cast<Slot>(task_cycles) + 1);
  phase_update = static_cast<Slot>(depth) + 1;
  iteration = phase_alloc + phase_work + phase_update;
}

// ---------------------------------------------------------------------------
// AlgVState

AlgVState::AlgVState(const WriteAllConfig& config, const VLayout& layout,
                     Pid pid, std::optional<Addr> done_flag, Slot start_slot,
                     Slot clock_stride)
    : config_(config), layout_(layout), pid_(pid), done_flag_(done_flag),
      start_slot_(start_slot), stride_(clock_stride) {
  RFSP_CHECK(stride_ >= 1);
  if (config_.task != nullptr) {
    scratch_.assign(config_.task->scratch_words(), Word{0});
  }
}

bool AlgVState::save_state(std::vector<Word>& out) const {
  WordWriter w(out);
  save_words(w);
  return true;
}

void AlgVState::save_words(WordWriter& w) const {
  // start_slot_/stride_ are constructor parameters, but a loader may have
  // built this state with defaults (e.g. CombinedState reloading a state
  // whose interleave began mid-run) — carrying them makes the stream
  // self-contained.
  w.put_u64(start_slot_);
  w.put_u64(stride_);
  w.put_bool(waiting_);
  w.put_u64(node_);
  w.put_u64(lo_);
  w.put_u64(hi_);
  w.put_u64(leaf_);
  w.put_span(std::span<const Word>(scratch_));
}

void AlgVState::load_words(WordReader& r) {
  start_slot_ = static_cast<Slot>(r.get_u64());
  stride_ = static_cast<Slot>(r.get_u64());
  waiting_ = r.get_bool();
  node_ = static_cast<Addr>(r.get_u64());
  lo_ = static_cast<Pid>(r.get_u64());
  hi_ = static_cast<Pid>(r.get_u64());
  leaf_ = static_cast<Addr>(r.get_u64());
  r.get_vec(scratch_);
}

bool AlgVState::cycle(CycleContext& ctx) {
  RFSP_CHECK_MSG(ctx.slot() >= start_slot_,
                 "V state used before its start slot");
  const Slot rel = (ctx.slot() - start_slot_) / stride_;
  const Slot phi = rel % layout_.iteration;

  if (waiting_) {
    if (phi != 0) {
      // Restarted mid-iteration: wait for the wrap-around (the paper's
      // iteration counter), watching for completion meanwhile.
      if (done_flag_) {
        if (payload_of(ctx.read(*done_flag_), config_.stamp) != 0) {
          return false;
        }
      } else if (payload_of(ctx.read(layout_.c(1)), config_.stamp) ==
                 static_cast<Word>(layout_.leaves_real)) {
        return false;
      }
      if (phi == layout_.iteration - 1) waiting_ = false;  // join next slot
      return true;
    }
    waiting_ = false;  // booted exactly at an iteration boundary
  }

  if (phi == 0) {
    node_ = 1;
    lo_ = 0;
    hi_ = layout_.p;
    leaf_ = 0;
  }

  if (phi < layout_.phase_alloc) return alloc_cycle(ctx, phi);
  if (phi < layout_.phase_alloc + layout_.phase_work) {
    work_cycle(ctx, phi - layout_.phase_alloc);
    return true;
  }
  return update_cycle(ctx, phi - layout_.phase_alloc - layout_.phase_work);
}

bool AlgVState::alloc_cycle(CycleContext& ctx, Slot k) {
  const Word stamp = config_.stamp;

  if (k == 0 && done_flag_) {
    // Embedded instances poll the shared done flag once per iteration.
    if (payload_of(ctx.read(*done_flag_), stamp) != 0) return false;
  }

  const Addr left = TreeNav::left(node_);
  const Addr right = TreeNav::right(node_);
  const Word cl = payload_of(ctx.read(layout_.c(left)), stamp);
  const Word cr = payload_of(ctx.read(layout_.c(right)), stamp);
  const Addr rl = layout_.real_leaves_below(left);
  const Addr rr = layout_.real_leaves_below(right);
  const Addr ul = rl - std::min<Addr>(rl, static_cast<Addr>(cl));
  const Addr ur = rr - std::min<Addr>(rr, static_cast<Addr>(cr));
  const Addr u = ul + ur;

  if (u == 0) {
    if (node_ == 1) {
      // Nothing unvisited anywhere: publish the root count and finish.
      ctx.write(layout_.c(1),
                stamped(stamp, static_cast<Word>(layout_.leaves_real)));
      if (done_flag_) ctx.write(*done_flag_, stamped(stamp, 1));
      return false;
    }
    // The subtree is complete although an ancestor's count claimed
    // otherwise: a processor died mid-phase-3' and left the path stale.
    // Do NOT idle — descend structurally to a (done) real leaf, redo it
    // (idempotent), and let phase 3' repair every count on the way back to
    // the root. Idling here would leave the stale counts in place forever
    // and the root could never reach its target. (Below a complete node
    // every subtree is complete, so the rest of the descent stays in this
    // branch and the PID interval is no longer consulted.)
    node_ = rl > 0 ? left : right;
    if (k + 1 == layout_.phase_alloc) leaf_ = node_ - layout_.leaves;
    return true;
  }

  // Divide-and-conquer by permanent PID: split the PID interval [lo_, hi_)
  // proportionally to the unvisited-leaf counts, as in Theorem 3.2's
  // balanced assignment, realized in O(log N) time (§4.1).
  const Pid span = hi_ - lo_;
  const Pid nl = static_cast<Pid>(
      (static_cast<std::uint64_t>(span) * ul) / u);
  if (pid_ < lo_ + nl) {
    node_ = left;
    hi_ = lo_ + nl;
  } else {
    node_ = right;
    lo_ = lo_ + nl;
  }
  if (k + 1 == layout_.phase_alloc) leaf_ = node_ - layout_.leaves;
  return true;
}

void AlgVState::work_cycle(CycleContext& ctx, Slot j) {
  const unsigned t = config_.task_cycles();
  const Addr e_idx = static_cast<Addr>(j) / (t + 1);
  const unsigned sub = static_cast<unsigned>(j % (t + 1));
  const Addr g = leaf_ * layout_.elems_per_leaf + e_idx;
  if (g >= layout_.n) return;  // padding inside the last real leaf
  if (sub < t) {
    if (sub == 0) std::fill(scratch_.begin(), scratch_.end(), Word{0});
    config_.task->run(ctx, g, sub, scratch_);
  } else {
    ctx.write(layout_.x(g), stamped(config_.stamp, 1));
  }
}

bool AlgVState::update_cycle(CycleContext& ctx, Slot m) {
  const Word stamp = config_.stamp;
  const Addr leaf_node = layout_.leaf_node(leaf_);

  if (m == 0) {
    ctx.write(layout_.c(leaf_node), stamped(stamp, 1));
    if (layout_.depth == 0) {
      // One-leaf tree: the leaf is the root and the count is complete.
      if (done_flag_) ctx.write(*done_flag_, stamped(stamp, 1));
      return false;
    }
    return true;
  }

  const Addr v = TreeNav::ancestor(leaf_node, static_cast<unsigned>(m));
  const Word cl = payload_of(ctx.read(layout_.c(TreeNav::left(v))), stamp);
  const Word cr = payload_of(ctx.read(layout_.c(TreeNav::right(v))), stamp);
  const Word sum = cl + cr;
  ctx.write(layout_.c(v), stamped(stamp, sum));
  if (m == layout_.phase_update - 1 &&
      sum == static_cast<Word>(layout_.leaves_real)) {
    if (done_flag_) ctx.write(*done_flag_, stamped(stamp, 1));
    return false;  // the root count is complete: halt
  }
  return true;
}

// ---------------------------------------------------------------------------
// AlgV

AlgV::AlgV(WriteAllConfig config)
    : WriteAllProgram(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p,
              config_.task_cycles(), config_.leaf_elems) {}

std::unique_ptr<ProcessorState> AlgV::boot(Pid pid) const {
  return std::make_unique<AlgVState>(config_, layout_, pid);
}

std::unique_ptr<ProcessorState> AlgV::load_state(
    Pid pid, std::span<const Word> data) const {
  auto state = std::make_unique<AlgVState>(config_, layout_, pid);
  WordReader r(data);
  state->load_words(r);
  RFSP_CHECK_MSG(r.exhausted(), "trailing words in a V checkpoint state");
  return state;
}

bool AlgV::goal(const SharedMemory& mem) const {
  return payload_of(mem.read(layout_.c(1)), config_.stamp) ==
         static_cast<Word>(layout_.leaves_real);
}

std::optional<PhaseSchedule> AlgV::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"alloc", "work", "update"};
  const Slot iteration = layout_.iteration;
  const Slot alloc_end = layout_.phase_alloc;
  const Slot work_end = layout_.phase_alloc + layout_.phase_work;
  schedule.phase_of = [iteration, alloc_end, work_end](Slot slot) {
    const Slot phi = slot % iteration;
    if (phi < alloc_end) return std::uint32_t{0};
    return phi < work_end ? std::uint32_t{1} : std::uint32_t{2};
  };
  return schedule;
}

}  // namespace rfsp
