#include "writeall/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/wordio.hpp"
#include "writeall/algv.hpp"
#include "writeall/algw.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"

// Software prefetch for the lane loops: a batched slot touches thousands of
// independent tree paths, so issuing the next lanes' loads while the
// current lane computes hides most of the miss latency. Semantics-neutral
// (a prefetch is a hint, never a read the model sees).
#if defined(__GNUC__) || defined(__clang__)
#define RFSP_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define RFSP_PREFETCH(addr) ((void)(addr))
#endif

namespace rfsp {
namespace {

// How many lanes ahead the batch loops prefetch. Large enough to cover an
// LLC miss at typical per-lane costs, small enough that the prefetched
// lines are still resident when their lane runs.
constexpr std::size_t kPrefetchDist = 32;

// Control-state tags for the iteration-synchronized algorithms (W, V, VX):
// a restarted lane waits for the wrap-around before rejoining. X is
// memoryless across cycles, so it has a single control state.
constexpr std::uint32_t kActive = 0;
constexpr std::uint32_t kWaiting = 1;

// Lane emission goes through LaneEmit (pram/soa.hpp): writes and halts
// land in the chunk's lane log, mirrored into the CycleTrace array only
// when the engine materializes traces. No budget check: the ported bodies
// write at most 2 cells per cycle and the engine only selects a kernel
// when the configured budgets cover the interpreter's usage.

inline void expect_word(WordReader& r, std::uint64_t want, const char* what) {
  if (r.get_u64() != want) {
    throw ConfigError(std::string("checkpoint state does not match the "
                                  "batched kernel: unexpected ") +
                      what);
  }
}

// ---------------------------------------------------------------------------
// Algorithm X: one navigate cycle for one lane. All traversal state lives
// in shared memory (w[pid]), so the lane body is a pure function of the
// slot-start memory — shared verbatim by the standalone X kernel, the
// odd slots of the combined kernel and the task-mode lanes. `visit(element,
// pos)` is the visit of an unvisited leaf: the plain element write in the
// task-free kernels, entering task mode in the task-mode lanes.

template <class Emit, class Visit>
void x_navigate_lane(const WriteAllConfig& config, const XLayout& lay,
                     const std::optional<Addr>& done_flag,
                     std::span<const Word> mem, Pid pid, Emit& em,
                     Visit&& visit) {
  const Word stamp = config.stamp;

  const Word wv = payload_of(mem[lay.w(pid)], stamp);
  if (wv == 0) {
    // Never initialized (or failed before the first write completed).
    const Addr idx = config.spaced_placement
                         ? (static_cast<Addr>(pid) * lay.n_pad) / lay.p
                         : static_cast<Addr>(pid) % lay.n_pad;
    em.write(lay.w(pid), stamped(stamp, static_cast<Word>(lay.leaf(idx))));
    return;
  }
  if (wv == lay.exited()) {
    em.halt();
    return;
  }

  const Addr pos = static_cast<Addr>(wv);
  RFSP_CHECK_MSG(pos >= 1 && pos < 2 * lay.n_pad,
                 "corrupt traversal position");

  // One address for d[pos] per lane-slot: the done read and the
  // leaf/interior marks all reuse it.
  const Addr pos_addr = lay.d(pos);
  const bool done = payload_of(mem[pos_addr], stamp) != 0;
  if (done) {
    const Addr up = TreeNav::parent(pos);
    em.write(lay.w(pid),
             stamped(stamp, up == 0 ? lay.exited() : static_cast<Word>(up)));
    return;
  }

  if (pos >= lay.n_pad) {  // at a leaf
    const Addr element = pos - lay.n_pad;
    if (element >= lay.n) {
      em.write(pos_addr, stamped(stamp, 1));
      return;
    }
    const bool visited = payload_of(mem[lay.x(element)], stamp) != 0;
    if (visited) {
      em.write(pos_addr, stamped(stamp, 1));
      if (done_flag && pos == 1) {
        em.write(*done_flag, stamped(stamp, 1));
      }
      return;
    }
    visit(element, pos);
    return;
  }

  const unsigned depth = floor_log2(pos);
  const Addr left = TreeNav::left(pos);
  const Addr right = left + 1;
  // Siblings are adjacent cells, so one address covers both children.
  const Addr left_addr = lay.d(left);
  const Addr right_addr = left_addr + 1;
  const bool left_done =
      lay.structurally_done(left) ||
      payload_of(mem[left_addr], stamp) != 0;
  const bool right_done =
      lay.structurally_done(right) ||
      payload_of(mem[right_addr], stamp) != 0;
  if (left_done && right_done) {
    em.write(pos_addr, stamped(stamp, 1));
    if (done_flag && pos == 1) em.write(*done_flag, stamped(stamp, 1));
    return;
  }
  Addr next;
  if (left_done != right_done) {
    next = left_done ? right : left;
  } else {
    const std::uint64_t significant =
        static_cast<std::uint64_t>(pid) % lay.n_pad;
    next = msb_bit(significant, depth, lay.height) ? right : left;
  }
  em.write(lay.w(pid), stamped(stamp, static_cast<Word>(next)));
}

// Run one navigate cycle for every lane of a group, software-pipelined:
// before lane i runs, lane i + kPrefetchDist's tree cells are prefetched.
// Classifying the future lane costs only its w cell (sequential, cheap);
// from the position we can prefetch exactly what the lane body will read —
// its d cell, plus the children (interior) or the x element (leaf).
void x_navigate_group(const WriteAllConfig& config, const XLayout& lay,
                      const std::optional<Addr>& done_flag,
                      const BatchContext& ctx, std::span<const Pid> pids) {
  const Word stamp = config.stamp;
  const std::span<const Word> mem = ctx.mem;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (i + kPrefetchDist < pids.size()) {
      const Pid fpid = pids[i + kPrefetchDist];
      const Word fwv = payload_of(mem[lay.w(fpid)], stamp);
      if (fwv != 0 && fwv != static_cast<Word>(lay.exited())) {
        const Addr fpos = static_cast<Addr>(fwv);
        if (fpos >= 1 && fpos < 2 * lay.n_pad) {
          RFSP_PREFETCH(&mem[lay.d(fpos)]);
          if (fpos >= lay.n_pad) {
            const Addr element = fpos - lay.n_pad;
            if (element < lay.n) RFSP_PREFETCH(&mem[lay.x(element)]);
          } else {
            // Left child only: the right sibling is the next cell, so one
            // line usually covers both.
            RFSP_PREFETCH(&mem[lay.d(TreeNav::left(fpos))]);
          }
        }
      }
    }
    LaneEmit em(ctx, pids[i]);
    x_navigate_lane(config, lay, done_flag, mem, pids[i], em,
                    [&](Addr element, Addr) {
                      em.write(lay.x(element), stamped(stamp, 1));
                    });
  }
}

// The constant tail of an X state's checkpoint stream (mode kNavigate, no
// task progress, no scratch, no RNG — the only private state a batchable X
// instance can have).
void x_save_words(WordWriter& w) {
  w.put_u64(0);      // mode_ = kNavigate
  w.put_u64(0);      // task_leaf_
  w.put_u64(0);      // task_k_
  w.put_u64(0);      // scratch_ (empty span)
  w.put_bool(false); // rng_ absent
}

void x_load_words(WordReader& r) {
  expect_word(r, 0, "X mode (kernels cover kNavigate only)");
  expect_word(r, 0, "X task leaf");
  expect_word(r, 0, "X task micro-cycle");
  expect_word(r, 0, "X scratch size");
  expect_word(r, 0, "X RNG flag");
}

// ---------------------------------------------------------------------------
// Algorithm V: the three-phase body over SoA registers, shared by the
// standalone V kernel (stride-1 clock, no done flag) and the even slots of
// the combined kernel (stride-2 clock, shared done flag). `phi` is the
// position inside the iteration on the instance's virtual clock.

constexpr std::size_t kVNode = 0;
constexpr std::size_t kVLo = 1;
constexpr std::size_t kVHi = 2;
constexpr std::size_t kVLeaf = 3;

void v_boot_lane(SoaStore& soa, Pid pid) {
  soa.set_ctrl(pid, kWaiting);
  soa.reg(kVNode, pid) = 1;
  soa.reg(kVLo, pid) = 0;
  soa.reg(kVHi, pid) = 0;
  soa.reg(kVLeaf, pid) = 0;
}

// Waiting lanes at phi != 0: poll completion (one uniform cell for the
// whole group), join at the last slot of the iteration.
void v_run_waiting(const WriteAllConfig& config, const VLayout& lay,
                   const std::optional<Addr>& done_flag,
                   const BatchContext& ctx, SoaStore& soa,
                   std::span<const Pid> pids, Slot phi) {
  const Word stamp = config.stamp;
  const bool finished =
      done_flag ? payload_of(ctx.mem[*done_flag], stamp) != 0
                : payload_of(ctx.mem[lay.c(1)], stamp) ==
                      static_cast<Word>(lay.leaves_real);
  const bool join = phi == lay.iteration - 1;
  for (const Pid pid : pids) {
    LaneEmit em(ctx, pid);
    if (finished) {
      em.halt();
    } else if (join) {
      soa.set_ctrl(pid, kActive);
    }
  }
}

template <class Emit>
void v_alloc_lane(const VLayout& lay, const std::optional<Addr>& done_flag,
                  Word stamp, std::span<const Word> mem, SoaStore& soa,
                  Pid pid, Emit& em, Slot k, AllocMemo& memo) {
  const Addr node = static_cast<Addr>(soa.reg(kVNode, pid));
  const Addr left = TreeNav::left(node);
  const Addr right = TreeNav::right(node);
  const Pid lo = static_cast<Pid>(soa.reg(kVLo, pid));
  const Pid hi = static_cast<Pid>(soa.reg(kVHi, pid));
  if (node != memo.node || lo != memo.lo || hi != memo.hi) {
    const Word cl = payload_of(mem[lay.c(left)], stamp);
    const Word cr = payload_of(mem[lay.c(right)], stamp);
    const Addr rl = lay.real_leaves_below(left);
    const Addr rr = lay.real_leaves_below(right);
    const Addr ul = rl - std::min<Addr>(rl, static_cast<Addr>(cl));
    const Addr ur = rr - std::min<Addr>(rr, static_cast<Addr>(cr));
    const Addr u = ul + ur;
    const Pid nl =
        u == 0 ? 0
               : static_cast<Pid>(
                     (static_cast<std::uint64_t>(hi - lo) * ul) / u);
    memo = {node, lo, hi, u, rl, nl};
  }

  if (memo.u == 0) {
    if (node == 1) {
      em.write(lay.c(1), stamped(stamp, static_cast<Word>(lay.leaves_real)));
      if (done_flag) em.write(*done_flag, stamped(stamp, 1));
      em.halt();
      return;
    }
    // Stale-count repair descent (see algv.cpp).
    const Addr next = memo.rl > 0 ? left : right;
    soa.reg(kVNode, pid) = static_cast<Word>(next);
    if (k + 1 == lay.phase_alloc) {
      soa.reg(kVLeaf, pid) = static_cast<Word>(next - lay.leaves);
    }
    return;
  }

  Addr next;
  if (pid < lo + memo.nl) {
    next = left;
    soa.reg(kVHi, pid) = lo + memo.nl;
  } else {
    next = right;
    soa.reg(kVLo, pid) = lo + memo.nl;
  }
  soa.reg(kVNode, pid) = static_cast<Word>(next);
  if (k + 1 == lay.phase_alloc) {
    soa.reg(kVLeaf, pid) = static_cast<Word>(next - lay.leaves);
  }
}

// One phase-3' cycle above the leaf (m >= 1): sum the children of the
// lane's level-m ancestor into it; the root's full count ends the instance.
template <class Emit>
void v_update_lane(const VLayout& lay, const std::optional<Addr>& done_flag,
                   Word stamp, std::span<const Word> mem, Addr leaf, Slot m,
                   Emit& em) {
  const Addr v =
      TreeNav::ancestor(lay.leaf_node(leaf), static_cast<unsigned>(m));
  const Word cl = payload_of(mem[lay.c(TreeNav::left(v))], stamp);
  const Word cr = payload_of(mem[lay.c(TreeNav::right(v))], stamp);
  const Word sum = cl + cr;
  em.write(lay.c(v), stamped(stamp, sum));
  if (m == lay.phase_update - 1 &&
      sum == static_cast<Word>(lay.leaves_real)) {
    if (done_flag) em.write(*done_flag, stamped(stamp, 1));
    em.halt();
  }
}

void v_run_active(const WriteAllConfig& config, const VLayout& lay,
                  const std::optional<Addr>& done_flag,
                  const BatchContext& ctx, SoaStore& soa,
                  std::span<const Pid> pids, Slot phi) {
  const Word stamp = config.stamp;

  if (phi == 0) {
    for (const Pid pid : pids) {
      soa.reg(kVNode, pid) = 1;
      soa.reg(kVLo, pid) = 0;
      soa.reg(kVHi, pid) = static_cast<Word>(lay.p);
      soa.reg(kVLeaf, pid) = 0;
    }
  }

  if (phi < lay.phase_alloc) {
    const Slot k = phi;
    const bool done_seen =
        k == 0 && done_flag &&
        payload_of(ctx.mem[*done_flag], stamp) != 0;
    AllocMemo memo;
    for (const Pid pid : pids) {
      LaneEmit em(ctx, pid);
      if (done_seen) {
        em.halt();
        continue;
      }
      v_alloc_lane(lay, done_flag, stamp, ctx.mem, soa, pid, em, k, memo);
    }
    return;
  }

  if (phi < lay.phase_alloc + lay.phase_work) {
    // task == nullptr in batch mode, so every work cycle is the plain
    // element write (task_cycles() == 0 collapses the micro-cycle split).
    const Slot j = phi - lay.phase_alloc;
    const Word cell = stamped(stamp, 1);
    for (const Pid pid : pids) {
      LaneEmit em(ctx, pid);
      const Addr g =
          static_cast<Addr>(soa.reg(kVLeaf, pid)) * lay.elems_per_leaf +
          static_cast<Addr>(j);
      if (g < lay.n) em.write(lay.x(g), cell);
    }
    return;
  }

  const Slot m = phi - lay.phase_alloc - lay.phase_work;
  if (m == 0) {
    const bool halt = lay.depth == 0;  // one-leaf tree: done immediately
    const Word cell = stamped(stamp, 1);
    for (const Pid pid : pids) {
      LaneEmit em(ctx, pid);
      em.write(lay.c(lay.leaf_node(static_cast<Addr>(soa.reg(kVLeaf, pid)))),
               cell);
      if (halt) {
        if (done_flag) em.write(*done_flag, stamped(stamp, 1));
        em.halt();
      }
    }
    return;
  }
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (i + kPrefetchDist < pids.size()) {
      const Addr fv = TreeNav::ancestor(
          lay.leaf_node(static_cast<Addr>(soa.reg(kVLeaf,
                                                  pids[i + kPrefetchDist]))),
          static_cast<unsigned>(m));
      RFSP_PREFETCH(&ctx.mem[lay.c(TreeNav::left(fv))]);
      RFSP_PREFETCH(&ctx.mem[lay.c(TreeNav::right(fv))]);
    }
    const Pid pid = pids[i];
    LaneEmit em(ctx, pid);
    v_update_lane(lay, done_flag, stamp, ctx.mem,
                  static_cast<Addr>(soa.reg(kVLeaf, pid)), m, em);
  }
}

// The variable part of a V state's checkpoint stream (between the
// start-slot/stride prefix and the empty-scratch suffix).
void v_save_regs(const SoaStore& soa, Pid pid, WordWriter& w) {
  w.put_bool(soa.ctrl(pid) == kWaiting);
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVNode, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVLo, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVHi, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVLeaf, pid)));
}

void v_load_regs(SoaStore& soa, Pid pid, WordReader& r) {
  soa.set_ctrl(pid, r.get_bool() ? kWaiting : kActive);
  soa.reg(kVNode, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVLo, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVHi, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVLeaf, pid) = static_cast<Word>(r.get_u64());
}

// ---------------------------------------------------------------------------
// Algorithm W kernel.

class WBatchKernel final : public BatchKernel {
 public:
  // W runs stamp 0 only (enforced by AlgW's constructor), so the kernel
  // needs no config beyond the layout.
  WBatchKernel(const WriteAllConfig& /*config*/, const WLayout& layout)
      : layout_(layout) {}

  std::size_t registers() const override { return 6; }
  std::uint32_t control_states() const override { return 2; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    soa.set_ctrl(pid, kWaiting);
    soa.reg(kRank, pid) = 0;
    soa.reg(kLive, pid) = 0;
    soa.reg(kNode, pid) = 1;
    soa.reg(kLo, pid) = 0;
    soa.reg(kHi, pid) = 0;
    soa.reg(kLeaf, pid) = 0;
  }

  void run(std::uint32_t ctrl, std::span<const Pid> pids,
           const BatchContext& ctx, SoaStore& soa) const override {
    const VLayout& pr = layout_.progress;
    const Slot phi = ctx.slot % layout_.iteration;
    const Word iter = static_cast<Word>(ctx.slot / layout_.iteration) + 1;

    if (ctrl == kWaiting) {
      if (phi != 0) {
        const bool finished = payload_of(ctx.mem[pr.c(1)], 0) ==
                              static_cast<Word>(pr.leaves_real);
        const bool join = phi == layout_.iteration - 1;
        for (const Pid pid : pids) {
          LaneEmit em(ctx, pid);
          if (finished) {
            em.halt();
          } else if (join) {
            soa.set_ctrl(pid, kActive);
          }
        }
        return;
      }
      // Booted exactly at an iteration boundary: join and run the active
      // body below, as the interpreter's fall-through does.
      for (const Pid pid : pids) soa.set_ctrl(pid, kActive);
    }

    if (phi < layout_.phase_count) {
      count_group(pids, ctx, soa, phi, iter);
      return;
    }
    Slot rest = phi - layout_.phase_count;
    if (rest < pr.phase_alloc) {
      AllocMemo memo;
      for (const Pid pid : pids) {
        LaneEmit em(ctx, pid);
        alloc_lane(ctx.mem, soa, pid, em, rest, memo);
      }
      return;
    }
    rest -= pr.phase_alloc;
    if (rest < pr.phase_work) {
      const Word cell = stamped(0, 1);
      for (const Pid pid : pids) {
        LaneEmit em(ctx, pid);
        const Addr g =
            static_cast<Addr>(soa.reg(kLeaf, pid)) * pr.elems_per_leaf +
            static_cast<Addr>(rest);
        if (g < pr.n) em.write(pr.x(g), cell);
      }
      return;
    }
    update_group(pids, ctx, soa, rest - pr.phase_work);
  }

  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    WordWriter w(out);
    w.put_bool(soa.ctrl(pid) == kWaiting);
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kRank, pid)));
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kLive, pid)));
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kNode, pid)));
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kLo, pid)));
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kHi, pid)));
    w.put_u64(static_cast<std::uint64_t>(soa.reg(kLeaf, pid)));
  }

  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    WordReader r(data);
    soa.set_ctrl(pid, r.get_bool() ? kWaiting : kActive);
    soa.reg(kRank, pid) = static_cast<Word>(r.get_u64());
    soa.reg(kLive, pid) = static_cast<Word>(r.get_u64());
    soa.reg(kNode, pid) = static_cast<Word>(r.get_u64());
    soa.reg(kLo, pid) = static_cast<Word>(r.get_u64());
    soa.reg(kHi, pid) = static_cast<Word>(r.get_u64());
    soa.reg(kLeaf, pid) = static_cast<Word>(r.get_u64());
    if (!r.exhausted()) {
      throw ConfigError("trailing words in a W checkpoint state");
    }
  }

 private:
  enum : std::size_t { kRank = 0, kLive, kNode, kLo, kHi, kLeaf };

  void count_group(std::span<const Pid> pids, const BatchContext& ctx,
                   SoaStore& soa, Slot j, Word iter) const {
    if (j == 0) {
      // Present ourselves in the counting tree; phi == 0 also resets the
      // per-iteration context, as the interpreter does before dispatch.
      const Word cell = stamped(iter, 1);
      for (const Pid pid : pids) {
        LaneEmit em(ctx, pid);
        soa.reg(kRank, pid) = 0;
        soa.reg(kLive, pid) = 0;
        soa.reg(kNode, pid) = 1;
        soa.reg(kLeaf, pid) = 0;
        em.write(layout_.cnt(layout_.cnt_leaf(pid)), cell);
      }
      return;
    }
    if (j <= layout_.p_depth) {
      for (const Pid pid : pids) {
        LaneEmit em(ctx, pid);
        const Addr my_prev = TreeNav::ancestor(
            layout_.cnt_leaf(pid), static_cast<unsigned>(j - 1));
        const Addr v = TreeNav::parent(my_prev);
        const Word cl =
            payload_of(ctx.mem[layout_.cnt(TreeNav::left(v))], iter);
        const Word cr =
            payload_of(ctx.mem[layout_.cnt(TreeNav::right(v))], iter);
        em.write(layout_.cnt(v), stamped(iter, cl + cr));
        if (my_prev % 2 == 1) soa.reg(kRank, pid) += cl;
      }
      return;
    }
    // Final counting cycle: the live total is one uniform cell.
    const Word live = payload_of(ctx.mem[layout_.cnt(1)], iter);
    RFSP_CHECK_MSG(live >= 1, "counting tree lost the current processor");
    for (const Pid pid : pids) {
      LaneEmit em(ctx, pid);
      soa.reg(kLive, pid) = live;
      soa.reg(kLo, pid) = 0;
      soa.reg(kHi, pid) = live;
    }
  }

  void alloc_lane(std::span<const Word> mem, SoaStore& soa, Pid pid,
                  LaneEmit& em, Slot k, AllocMemo& memo) const {
    const VLayout& pr = layout_.progress;
    const Addr node = static_cast<Addr>(soa.reg(kNode, pid));
    const Addr left = TreeNav::left(node);
    const Addr right = TreeNav::right(node);
    const Pid lo = static_cast<Pid>(soa.reg(kLo, pid));
    const Pid hi = static_cast<Pid>(soa.reg(kHi, pid));
    if (node != memo.node || lo != memo.lo || hi != memo.hi) {
      const Word cl = payload_of(mem[pr.c(left)], 0);
      const Word cr = payload_of(mem[pr.c(right)], 0);
      const Addr rl = pr.real_leaves_below(left);
      const Addr rr = pr.real_leaves_below(right);
      const Addr ul = rl - std::min<Addr>(rl, static_cast<Addr>(cl));
      const Addr ur = rr - std::min<Addr>(rr, static_cast<Addr>(cr));
      const Addr u = ul + ur;
      const Pid nl =
          u == 0 ? 0
                 : static_cast<Pid>(
                       (static_cast<std::uint64_t>(hi - lo) * ul) / u);
      memo = {node, lo, hi, u, rl, nl};
    }

    if (memo.u == 0) {
      if (node == 1) {
        em.write(pr.c(1), stamped(0, static_cast<Word>(pr.leaves_real)));
        em.halt();
        return;
      }
      const Addr next = memo.rl > 0 ? left : right;
      soa.reg(kNode, pid) = static_cast<Word>(next);
      if (k + 1 == pr.phase_alloc) {
        soa.reg(kLeaf, pid) = static_cast<Word>(next - pr.leaves);
      }
      return;
    }

    // Allocation by rank within the enumerated-live interval [lo, hi).
    Addr next;
    if (static_cast<Pid>(soa.reg(kRank, pid)) < lo + memo.nl) {
      next = left;
      soa.reg(kHi, pid) = lo + memo.nl;
    } else {
      next = right;
      soa.reg(kLo, pid) = lo + memo.nl;
    }
    soa.reg(kNode, pid) = static_cast<Word>(next);
    if (k + 1 == pr.phase_alloc) {
      soa.reg(kLeaf, pid) = static_cast<Word>(next - pr.leaves);
    }
  }

  void update_group(std::span<const Pid> pids, const BatchContext& ctx,
                    SoaStore& soa, Slot m) const {
    const VLayout& pr = layout_.progress;
    if (m == 0) {
      const bool halt = pr.depth == 0;  // one-leaf tree: done immediately
      const Word cell = stamped(0, 1);
      for (const Pid pid : pids) {
        LaneEmit em(ctx, pid);
        em.write(pr.c(pr.leaf_node(static_cast<Addr>(soa.reg(kLeaf, pid)))),
                 cell);
        if (halt) em.halt();
      }
      return;
    }
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (i + kPrefetchDist < pids.size()) {
        const Addr fv = TreeNav::ancestor(
            pr.leaf_node(static_cast<Addr>(soa.reg(kLeaf,
                                                   pids[i + kPrefetchDist]))),
            static_cast<unsigned>(m));
        RFSP_PREFETCH(&ctx.mem[pr.c(TreeNav::left(fv))]);
        RFSP_PREFETCH(&ctx.mem[pr.c(TreeNav::right(fv))]);
      }
      const Pid pid = pids[i];
      LaneEmit em(ctx, pid);
      const Addr leaf_node =
          pr.leaf_node(static_cast<Addr>(soa.reg(kLeaf, pid)));
      const Addr v = TreeNav::ancestor(leaf_node, static_cast<unsigned>(m));
      const Word cl = payload_of(ctx.mem[pr.c(TreeNav::left(v))], 0);
      const Word cr = payload_of(ctx.mem[pr.c(TreeNav::right(v))], 0);
      const Word sum = cl + cr;
      em.write(pr.c(v), stamped(0, sum));
      if (m == pr.phase_update - 1 &&
          sum == static_cast<Word>(pr.leaves_real)) {
        em.halt();
      }
    }
  }

  const WLayout& layout_;
};

// ---------------------------------------------------------------------------
// Algorithm V kernel (standalone: stride-1 clock, no done flag).

class VBatchKernel final : public BatchKernel {
 public:
  VBatchKernel(const WriteAllConfig& config, const VLayout& layout)
      : config_(config), layout_(layout) {}

  std::size_t registers() const override { return 4; }
  std::uint32_t control_states() const override { return 2; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    v_boot_lane(soa, pid);
  }

  void run(std::uint32_t ctrl, std::span<const Pid> pids,
           const BatchContext& ctx, SoaStore& soa) const override {
    const Slot phi = ctx.slot % layout_.iteration;
    if (ctrl == kWaiting) {
      if (phi != 0) {
        v_run_waiting(config_, layout_, std::nullopt, ctx, soa, pids, phi);
        return;
      }
      for (const Pid pid : pids) soa.set_ctrl(pid, kActive);
    }
    v_run_active(config_, layout_, std::nullopt, ctx, soa, pids, phi);
  }

  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    WordWriter w(out);
    w.put_u64(0);  // start_slot_
    w.put_u64(1);  // stride_
    v_save_regs(soa, pid, w);
    w.put_u64(0);  // scratch_ (empty span; no TaskSpec in batch mode)
  }

  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    WordReader r(data);
    expect_word(r, 0, "V start slot");
    expect_word(r, 1, "V clock stride");
    v_load_regs(soa, pid, r);
    expect_word(r, 0, "V scratch size");
    if (!r.exhausted()) {
      throw ConfigError("trailing words in a V checkpoint state");
    }
  }

 private:
  const WriteAllConfig& config_;
  const VLayout& layout_;
};

// ---------------------------------------------------------------------------
// Algorithm X kernel (PID-bit descent; no private registers at all).

class XBatchKernel final : public BatchKernel {
 public:
  XBatchKernel(const WriteAllConfig& config, const XLayout& layout)
      : config_(config), layout_(layout) {}

  std::size_t registers() const override { return 0; }
  std::uint32_t control_states() const override { return 1; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    soa.set_ctrl(pid, 0);
  }

  void run(std::uint32_t /*ctrl*/, std::span<const Pid> pids,
           const BatchContext& ctx, SoaStore& /*soa*/) const override {
    x_navigate_group(config_, layout_, std::nullopt, ctx, pids);
  }

  void save_lane(const SoaStore& /*soa*/, Pid /*pid*/,
                 std::vector<Word>& out) const override {
    WordWriter w(out);
    x_save_words(w);
  }

  void load_lane(SoaStore& /*soa*/, Pid /*pid*/,
                 std::span<const Word> data) const override {
    WordReader r(data);
    x_load_words(r);
    if (!r.exhausted()) {
      throw ConfigError("trailing words in an X checkpoint state");
    }
  }

 private:
  const WriteAllConfig& config_;
  const XLayout& layout_;
};

// ---------------------------------------------------------------------------
// Combined V+X kernel: even slots run V on the stride-2 virtual clock, odd
// slots run X; both halves share the done flag. Only the V half carries
// private registers, so the combined lane state is V's registers plus the
// waiting tag (the X half is memoryless across cycles).

class VxBatchKernel final : public BatchKernel {
 public:
  VxBatchKernel(const WriteAllConfig& config, const CombinedLayout& layout)
      : config_(config), layout_(layout) {}

  std::size_t registers() const override { return 4; }
  std::uint32_t control_states() const override { return 2; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    v_boot_lane(soa, pid);
  }

  void run(std::uint32_t ctrl, std::span<const Pid> pids,
           const BatchContext& ctx, SoaStore& soa) const override {
    if (ctx.slot % 2 != 0) {
      // X half; the V waiting tag is irrelevant on odd slots.
      x_navigate_group(config_, layout_.x, layout_.done, ctx, pids);
      return;
    }
    const Slot phi = (ctx.slot / 2) % layout_.v.iteration;
    if (ctrl == kWaiting) {
      if (phi != 0) {
        v_run_waiting(config_, layout_.v, layout_.done, ctx, soa, pids, phi);
        return;
      }
      for (const Pid pid : pids) soa.set_ctrl(pid, kActive);
    }
    v_run_active(config_, layout_.v, layout_.done, ctx, soa, pids, phi);
  }

  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    WordWriter w(out);
    w.put_u64(0);  // CombinedState start_slot_
    w.put_u64(0);  // V start_slot_
    w.put_u64(2);  // V clock stride
    v_save_regs(soa, pid, w);
    w.put_u64(0);  // V scratch_ (empty span)
    x_save_words(w);
  }

  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    WordReader r(data);
    expect_word(r, 0, "combined start slot");
    expect_word(r, 0, "V start slot");
    expect_word(r, 2, "V clock stride");
    v_load_regs(soa, pid, r);
    expect_word(r, 0, "V scratch size");
    x_load_words(r);
    if (!r.exhausted()) {
      throw ConfigError("trailing words in a VX checkpoint state");
    }
  }

 private:
  const WriteAllConfig& config_;
  const CombinedLayout& layout_;
};

// ---------------------------------------------------------------------------
// Task-mode VX kernel: the combined interleave over TaskLanes, one lane at a
// time (standalone CombinedVX whose TaskSpec has a lane form).

class VxTaskBatchKernel final : public BatchKernel {
 public:
  VxTaskBatchKernel(const WriteAllConfig& config, const CombinedLayout& layout)
      : lanes_(config, layout, config.task->scratch_words()) {}

  std::size_t registers() const override { return lanes_.registers(); }
  std::uint32_t control_states() const override { return 1; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    lanes_.reset(soa, pid);
  }

  void run(std::uint32_t /*ctrl*/, std::span<const Pid> pids,
           const BatchContext& ctx, SoaStore& soa) const override {
    TaskLanes::Loop loop{ctx.mem, soa};
    for (const Pid pid : pids) {
      LaneEmit em(ctx, pid);
      if (!lanes_.vx_cycle(loop, pid, ctx.slot, 0, em)) em.halt();
    }
  }

  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    WordWriter w(out);
    w.put_u64(0);  // CombinedState start_slot_
    lanes_.save_v(soa, pid, 0, 2, w);
    lanes_.save_x(soa, pid, w);
  }

  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    WordReader r(data);
    expect_word(r, 0, "combined start slot");
    lanes_.load_v(soa, pid, 0, 2, r);
    lanes_.load_x(soa, pid, r);
    if (!r.exhausted()) {
      throw ConfigError("trailing words in a VX checkpoint state");
    }
  }

 private:
  TaskLanes lanes_;
};

// Emission of an embedded instance's cycle: writes go to the lane; a halt
// only records that the instance finished, so the caller decides what the
// lane does next (the interpreter states' cycle() returning false).
struct InstanceEmit {
  LaneEmit& lane;
  bool done = false;
  void write(Addr a, Word v) { lane.write(a, v); }
  void halt() { done = true; }
};

// Task-mode registers (see TaskLanes in kernels.hpp); V's node / lo / hi /
// leaf stay at kVNode..kVLeaf. X's modes number as AlgXState::Mode does.
constexpr std::size_t kVWaiting = 4;
constexpr std::size_t kXMode = 5;
constexpr std::size_t kXLeaf = 6;
constexpr std::size_t kXStep = 7;
constexpr Word kXNavigate = 0;
constexpr Word kXTask = 1;
constexpr Word kXDoneMark = 2;

}  // namespace

// ---------------------------------------------------------------------------
// TaskLanes

TaskLanes::TaskLanes(const WriteAllConfig& config,
                     const CombinedLayout& layout, std::size_t scratch_cap)
    : config_(config), layout_(layout), done_(layout.done),
      scratch_cap_(scratch_cap),
      scratch_words_(config.task->scratch_words()),
      task_cycles_(config.task->cycles_per_task()) {
  RFSP_CHECK_MSG(config.task->has_lane_form(),
                 "task-mode lanes need a TaskSpec with a lane form");
  RFSP_CHECK(scratch_words_ <= scratch_cap_);
}

void TaskLanes::reset(SoaStore& soa, Pid pid) const {
  soa.reg(kVNode, pid) = 1;
  soa.reg(kVLo, pid) = 0;
  soa.reg(kVHi, pid) = 0;
  soa.reg(kVLeaf, pid) = 0;
  soa.reg(kVWaiting, pid) = 1;
  soa.reg(kXMode, pid) = kXNavigate;
  soa.reg(kXLeaf, pid) = 0;
  soa.reg(kXStep, pid) = 0;
  const std::span<Word> band = soa.band(kRegisters, 2 * scratch_cap_, pid);
  std::fill(band.begin(), band.end(), Word{0});
}

bool TaskLanes::vx_cycle(Loop& loop, Pid pid, Slot slot, Slot start,
                         LaneEmit& em) const {
  // CombinedState's parity test runs on the wrapped difference.
  return (slot - start) % 2 == 0 ? v_cycle(loop, pid, slot, start, 2, em)
                                 : x_cycle(loop, pid, em);
}

bool TaskLanes::v_cycle(Loop& loop, Pid pid, Slot slot, Slot start,
                        Slot clock_stride, LaneEmit& em) const {
  RFSP_CHECK_MSG(slot >= start, "V state used before its start slot");
  return v_phase(loop, pid,
                 ((slot - start) / clock_stride) % layout_.v.iteration, em);
}

// AlgVState::cycle with the done flag, over the lane's registers, at
// position `phi` of V's iteration.
bool TaskLanes::v_phase(Loop& loop, Pid pid, Slot phi, LaneEmit& em) const {
  const VLayout& lay = layout_.v;
  const std::span<const Word> mem = loop.mem;
  SoaStore& soa = loop.soa;
  const Word stamp = config_.stamp;
  const auto done_seen = [&] {
    return payload_of(mem[layout_.done], stamp) != 0;
  };

  if (soa.reg(kVWaiting, pid) != 0) {
    if (phi != 0) {
      // Restarted mid-iteration: wait for the wrap-around, watching the
      // done flag meanwhile.
      if (done_seen()) return false;
      if (phi == lay.iteration - 1) soa.reg(kVWaiting, pid) = 0;
      return true;
    }
    soa.reg(kVWaiting, pid) = 0;  // booted exactly at an iteration boundary
  }

  if (phi == 0) {
    soa.reg(kVNode, pid) = 1;
    soa.reg(kVLo, pid) = 0;
    soa.reg(kVHi, pid) = static_cast<Word>(lay.p);
    soa.reg(kVLeaf, pid) = 0;
  }

  if (phi < lay.phase_alloc) {
    if (phi == 0 && done_seen()) return false;
    InstanceEmit inst{em};
    v_alloc_lane(lay, done_, stamp, mem, soa, pid, inst, phi, loop.memo);
    return !inst.done;
  }

  const Addr leaf = static_cast<Addr>(soa.reg(kVLeaf, pid));
  if (phi < lay.phase_alloc + lay.phase_work) {
    // Leaf work: each element's task micro-cycles, then its x mark.
    const Slot j = phi - lay.phase_alloc;
    const unsigned sub = static_cast<unsigned>(j % (task_cycles_ + 1));
    const Addr g =
        leaf * lay.elems_per_leaf + static_cast<Addr>(j / (task_cycles_ + 1));
    if (g >= lay.n) return true;  // padding inside the last real leaf
    if (sub < task_cycles_) {
      const std::span<Word> scratch = v_scratch(soa, pid);
      if (sub == 0) std::fill(scratch.begin(), scratch.end(), Word{0});
      LaneCycle lane(mem, em);
      config_.task->run_lane(lane, g, sub, scratch);
    } else {
      em.write(lay.x(g), stamped(stamp, 1));
    }
    return true;
  }

  const Slot m = phi - lay.phase_alloc - lay.phase_work;
  if (m == 0) {
    em.write(lay.c(lay.leaf_node(leaf)), stamped(stamp, 1));
    if (lay.depth == 0) {  // one-leaf tree: the leaf is the root
      em.write(layout_.done, stamped(stamp, 1));
      return false;
    }
    return true;
  }
  InstanceEmit inst{em};
  v_update_lane(lay, done_, stamp, mem, leaf, m, inst);
  return !inst.done;
}

// AlgXState::cycle (PID-bit descent) over the lane's registers.
bool TaskLanes::x_cycle(Loop& loop, Pid pid, LaneEmit& em) const {
  const XLayout& lay = layout_.x;
  SoaStore& soa = loop.soa;
  Word& mode = soa.reg(kXMode, pid);
  if (mode == kXNavigate) {
    InstanceEmit inst{em};
    x_navigate_lane(config_, lay, done_, loop.mem, pid, inst,
                    [&](Addr, Addr pos) {
                      mode = kXTask;
                      soa.reg(kXLeaf, pid) = static_cast<Word>(pos);
                      soa.reg(kXStep, pid) = 0;
                      const std::span<Word> scratch = x_scratch(soa, pid);
                      std::fill(scratch.begin(), scratch.end(), Word{0});
                    });
    return !inst.done;
  }
  const Addr element =
      lay.first_element(static_cast<Addr>(soa.reg(kXLeaf, pid)));
  if (mode == kXTask) {
    Word& k = soa.reg(kXStep, pid);
    LaneCycle lane(loop.mem, em);
    config_.task->run_lane(lane, element, static_cast<unsigned>(k),
                           x_scratch(soa, pid));
    if (++k >= static_cast<Word>(task_cycles_)) mode = kXDoneMark;
    return true;
  }
  em.write(lay.x(element), stamped(config_.stamp, 1));
  mode = kXNavigate;
  return true;
}

void TaskLanes::save_v(const SoaStore& soa, Pid pid, Slot start,
                       Slot clock_stride, WordWriter& w) const {
  w.put_u64(start);
  w.put_u64(clock_stride);
  w.put_bool(soa.reg(kVWaiting, pid) != 0);
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVNode, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVLo, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVHi, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kVLeaf, pid)));
  w.put_span(soa.band(kRegisters, 2 * scratch_cap_, pid)
                 .first(scratch_words_));
}

void TaskLanes::load_v(SoaStore& soa, Pid pid, Slot start, Slot clock_stride,
                       WordReader& r) const {
  expect_word(r, start, "V start slot");
  expect_word(r, clock_stride, "V clock stride");
  soa.reg(kVWaiting, pid) = r.get_bool() ? 1 : 0;
  soa.reg(kVNode, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVLo, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVHi, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kVLeaf, pid) = static_cast<Word>(r.get_u64());
  expect_word(r, scratch_words_, "V scratch size");
  for (Word& word : v_scratch(soa, pid)) word = r.get();
}

void TaskLanes::save_x(const SoaStore& soa, Pid pid, WordWriter& w) const {
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kXMode, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kXLeaf, pid)));
  w.put_u64(static_cast<std::uint64_t>(soa.reg(kXStep, pid)));
  w.put_span(soa.band(kRegisters, 2 * scratch_cap_, pid)
                 .subspan(scratch_cap_, scratch_words_));
  w.put_bool(false);  // rng_ absent (PID-bit descent)
}

void TaskLanes::load_x(SoaStore& soa, Pid pid, WordReader& r) const {
  const std::uint64_t mode = r.get_u64();
  if (mode > static_cast<std::uint64_t>(kXDoneMark)) {
    throw ConfigError("invalid X-state mode in a checkpoint stream");
  }
  soa.reg(kXMode, pid) = static_cast<Word>(mode);
  soa.reg(kXLeaf, pid) = static_cast<Word>(r.get_u64());
  soa.reg(kXStep, pid) = static_cast<Word>(r.get_u64());
  expect_word(r, scratch_words_, "X scratch size");
  for (Word& word : x_scratch(soa, pid)) word = r.get();
  expect_word(r, 0, "X RNG flag");
}

// ---------------------------------------------------------------------------
// Factories and the Program::batch_kernels overrides.

std::unique_ptr<BatchKernel> make_w_batch_kernel(const WriteAllConfig& config,
                                                 const WLayout& layout) {
  return std::make_unique<WBatchKernel>(config, layout);
}

std::unique_ptr<BatchKernel> make_v_batch_kernel(const WriteAllConfig& config,
                                                 const VLayout& layout) {
  return std::make_unique<VBatchKernel>(config, layout);
}

std::unique_ptr<BatchKernel> make_x_batch_kernel(const WriteAllConfig& config,
                                                 const XLayout& layout) {
  return std::make_unique<XBatchKernel>(config, layout);
}

std::unique_ptr<BatchKernel> make_vx_batch_kernel(
    const WriteAllConfig& config, const CombinedLayout& layout) {
  if (config.task != nullptr) {
    return std::make_unique<VxTaskBatchKernel>(config, layout);
  }
  return std::make_unique<VxBatchKernel>(config, layout);
}

std::unique_ptr<BatchKernel> AlgW::batch_kernels() const {
  // W is standalone-only (no TaskSpec, stamp 0 — enforced at construction),
  // so its kernel is always available.
  return make_w_batch_kernel(config_, layout_);
}

std::unique_ptr<BatchKernel> AlgV::batch_kernels() const {
  if (config_.task != nullptr) return nullptr;
  return make_v_batch_kernel(config_, layout_);
}

std::unique_ptr<BatchKernel> AlgX::batch_kernels() const {
  if (config_.task != nullptr) return nullptr;
  return make_x_batch_kernel(config_, layout_);
}

std::unique_ptr<BatchKernel> CombinedVX::batch_kernels() const {
  if (config_.task != nullptr && !config_.task->has_lane_form()) {
    return nullptr;
  }
  return make_vx_batch_kernel(config_, layout_);
}

}  // namespace rfsp
