#include "writeall/algw.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// WLayout

WLayout::WLayout(Addr x_base, Addr aux_base, Addr n, Pid p)
    : progress(x_base, aux_base, n, p, /*task_cycles=*/0),
      p_pad(static_cast<Pid>(ceil_pow2(p))),
      p_depth(ceil_log2(ceil_pow2(p))),
      cnt_base(progress.aux_end()) {
  phase_count = 1 + static_cast<Slot>(p_depth) + 1;
  iteration = phase_count + progress.phase_alloc + progress.phase_work +
              progress.phase_update;
}

// ---------------------------------------------------------------------------
// AlgWState

AlgWState::AlgWState(const WriteAllConfig& config, const WLayout& layout,
                     Pid pid)
    : config_(config), layout_(layout), pid_(pid) {}

bool AlgWState::save_state(std::vector<Word>& out) const {
  WordWriter w(out);
  save_words(w);
  return true;
}

void AlgWState::save_words(WordWriter& w) const {
  w.put_bool(waiting_);
  w.put_u64(rank_);
  w.put_u64(live_);
  w.put_u64(node_);
  w.put_u64(lo_);
  w.put_u64(hi_);
  w.put_u64(leaf_);
}

void AlgWState::load_words(WordReader& r) {
  waiting_ = r.get_bool();
  rank_ = static_cast<Pid>(r.get_u64());
  live_ = static_cast<Pid>(r.get_u64());
  node_ = static_cast<Addr>(r.get_u64());
  lo_ = static_cast<Pid>(r.get_u64());
  hi_ = static_cast<Pid>(r.get_u64());
  leaf_ = static_cast<Addr>(r.get_u64());
}

bool AlgWState::cycle(CycleContext& ctx) {
  const VLayout& pr = layout_.progress;
  const Slot phi = ctx.slot() % layout_.iteration;
  // 1-based iteration number stamps the counting tree; stale cells then
  // read as zero without any clearing work.
  const Word iter = static_cast<Word>(ctx.slot() / layout_.iteration) + 1;

  if (waiting_) {
    if (phi != 0) {
      if (payload_of(ctx.read(pr.c(1)), 0) ==
          static_cast<Word>(pr.leaves_real)) {
        return false;  // finished while we were waiting
      }
      if (phi == layout_.iteration - 1) waiting_ = false;
      return true;
    }
    waiting_ = false;
  }

  if (phi == 0) {
    rank_ = 0;
    live_ = 0;
    node_ = 1;
    leaf_ = 0;
  }

  if (phi < layout_.phase_count) return count_cycle(ctx, phi, iter);
  Slot rest = phi - layout_.phase_count;
  if (rest < pr.phase_alloc) return alloc_cycle(ctx, rest);
  rest -= pr.phase_alloc;
  if (rest < pr.phase_work) {
    work_cycle(ctx, rest);
    return true;
  }
  return update_cycle(ctx, rest - pr.phase_work);
}

bool AlgWState::count_cycle(CycleContext& ctx, Slot j, Word iter) {
  if (j == 0) {
    // Present ourselves in the counting tree.
    ctx.write(layout_.cnt(layout_.cnt_leaf(pid_)), stamped(iter, 1));
    return true;
  }
  if (j <= layout_.p_depth) {
    // Climb level j: combine children counts at our depth-(p_depth - j)
    // ancestor; accumulate our rank from left siblings we pass.
    const Addr my_prev = TreeNav::ancestor(layout_.cnt_leaf(pid_),
                                           static_cast<unsigned>(j - 1));
    const Addr v = TreeNav::parent(my_prev);
    const Word cl = payload_of(ctx.read(layout_.cnt(TreeNav::left(v))), iter);
    const Word cr = payload_of(ctx.read(layout_.cnt(TreeNav::right(v))), iter);
    ctx.write(layout_.cnt(v), stamped(iter, cl + cr));
    if (my_prev % 2 == 1) rank_ += static_cast<Pid>(cl);
    return true;
  }
  // Final counting cycle: learn the live total.
  live_ = static_cast<Pid>(payload_of(ctx.read(layout_.cnt(1)), iter));
  RFSP_CHECK_MSG(live_ >= 1, "counting tree lost the current processor");
  lo_ = 0;
  hi_ = live_;
  return true;
}

bool AlgWState::alloc_cycle(CycleContext& ctx, Slot k) {
  const VLayout& pr = layout_.progress;
  const Addr left = TreeNav::left(node_);
  const Addr right = TreeNav::right(node_);
  const Word cl = payload_of(ctx.read(pr.c(left)), 0);
  const Word cr = payload_of(ctx.read(pr.c(right)), 0);
  const Addr rl = pr.real_leaves_below(left);
  const Addr rr = pr.real_leaves_below(right);
  const Addr ul = rl - std::min<Addr>(rl, static_cast<Addr>(cl));
  const Addr ur = rr - std::min<Addr>(rr, static_cast<Addr>(cr));
  const Addr u = ul + ur;

  if (u == 0) {
    if (node_ == 1) {
      ctx.write(pr.c(1), stamped(0, static_cast<Word>(pr.leaves_real)));
      return false;
    }
    // Stale-count repair, as in algorithm V (see algv.cpp): descend to a
    // done leaf and re-run phases 3/4 so the path's counts get rewritten.
    node_ = rl > 0 ? left : right;
    if (k + 1 == pr.phase_alloc) leaf_ = node_ - pr.leaves;
    return true;
  }

  // Allocation by *rank* within the enumerated-live interval [lo_, hi_):
  // this is the accuracy W gains from phase 1 — and loses under restarts.
  const Pid span = hi_ - lo_;
  const Pid nl =
      static_cast<Pid>((static_cast<std::uint64_t>(span) * ul) / u);
  if (rank_ < lo_ + nl) {
    node_ = left;
    hi_ = lo_ + nl;
  } else {
    node_ = right;
    lo_ = lo_ + nl;
  }
  if (k + 1 == pr.phase_alloc) leaf_ = node_ - pr.leaves;
  return true;
}

void AlgWState::work_cycle(CycleContext& ctx, Slot j) {
  const VLayout& pr = layout_.progress;
  const Addr g = leaf_ * pr.elems_per_leaf + static_cast<Addr>(j);
  if (g >= pr.n) return;
  ctx.write(pr.x(g), stamped(0, 1));
}

bool AlgWState::update_cycle(CycleContext& ctx, Slot m) {
  const VLayout& pr = layout_.progress;
  const Addr leaf_node = pr.leaf_node(leaf_);

  if (m == 0) {
    ctx.write(pr.c(leaf_node), stamped(0, 1));
    return pr.depth != 0;  // one-leaf tree: done immediately
  }
  const Addr v = TreeNav::ancestor(leaf_node, static_cast<unsigned>(m));
  const Word cl = payload_of(ctx.read(pr.c(TreeNav::left(v))), 0);
  const Word cr = payload_of(ctx.read(pr.c(TreeNav::right(v))), 0);
  const Word sum = cl + cr;
  ctx.write(pr.c(v), stamped(0, sum));
  return !(m == pr.phase_update - 1 &&
           sum == static_cast<Word>(pr.leaves_real));
}

// ---------------------------------------------------------------------------
// AlgW

AlgW::AlgW(WriteAllConfig config)
    : WriteAllProgram(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {
  if (config_.task != nullptr || config_.stamp != 0) {
    throw ConfigError(
        "AlgW is a standalone baseline: no TaskSpec, no epoch stamping");
  }
}

std::unique_ptr<ProcessorState> AlgW::boot(Pid pid) const {
  return std::make_unique<AlgWState>(config_, layout_, pid);
}

std::unique_ptr<ProcessorState> AlgW::load_state(
    Pid pid, std::span<const Word> data) const {
  auto state = std::make_unique<AlgWState>(config_, layout_, pid);
  WordReader r(data);
  state->load_words(r);
  RFSP_CHECK_MSG(r.exhausted(), "trailing words in a W checkpoint state");
  return state;
}

bool AlgW::goal(const SharedMemory& mem) const {
  return payload_of(mem.read(layout_.progress.c(1)), 0) ==
         static_cast<Word>(layout_.progress.leaves_real);
}

std::optional<PhaseSchedule> AlgW::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"count", "alloc", "work", "update"};
  const Slot iteration = layout_.iteration;
  const Slot count_end = layout_.phase_count;
  const Slot alloc_end = count_end + layout_.progress.phase_alloc;
  const Slot work_end = alloc_end + layout_.progress.phase_work;
  schedule.phase_of = [iteration, count_end, alloc_end, work_end](Slot slot) {
    const Slot phi = slot % iteration;
    if (phi < count_end) return std::uint32_t{0};
    if (phi < alloc_end) return std::uint32_t{1};
    return phi < work_end ? std::uint32_t{2} : std::uint32_t{3};
  };
  return schedule;
}

}  // namespace rfsp
