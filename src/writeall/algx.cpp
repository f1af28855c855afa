#include "writeall/algx.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// XLayout

XLayout::XLayout(Addr x_base_in, Addr aux_base, Addr n_in, Pid p_in)
    : n(n_in), n_pad(ceil_pow2(n_in)), height(ceil_log2(ceil_pow2(n_in))),
      p(p_in), x_base(x_base_in), d_base(aux_base),
      w_base(aux_base + (2 * ceil_pow2(n_in) - 1)) {
  RFSP_CHECK(n >= 1 && p >= 1);
}

// ---------------------------------------------------------------------------
// AlgXState

AlgXState::AlgXState(const WriteAllConfig& config, const XLayout& layout,
                     Pid pid, std::optional<Addr> done_flag, Descent descent)
    : config_(config), layout_(layout), pid_(pid), done_flag_(done_flag),
      descent_(descent) {
  if (config_.task != nullptr) {
    scratch_.assign(config_.task->scratch_words(), Word{0});
  }
}

bool AlgXState::save_state(std::vector<Word>& out) const {
  WordWriter w(out);
  save_words(w);
  return true;
}

void AlgXState::save_words(WordWriter& w) const {
  w.put_u64(static_cast<std::uint64_t>(mode_));
  w.put_u64(task_leaf_);
  w.put_u64(task_k_);
  w.put_span(std::span<const Word>(scratch_));
  w.put_bool(rng_.has_value());
  if (rng_) {
    for (std::uint64_t word : rng_->state()) w.put_u64(word);
  }
}

void AlgXState::load_words(WordReader& r) {
  const std::uint64_t mode = r.get_u64();
  if (mode > static_cast<std::uint64_t>(Mode::kTaskDoneMark)) {
    throw ConfigError("invalid X-state mode in a checkpoint stream");
  }
  mode_ = static_cast<Mode>(mode);
  task_leaf_ = static_cast<Addr>(r.get_u64());
  task_k_ = static_cast<unsigned>(r.get_u64());
  r.get_vec(scratch_);
  if (r.get_bool()) {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& word : s) word = r.get_u64();
    rng_.emplace(std::uint64_t{0});
    rng_->set_state(s);
  } else {
    rng_.reset();
  }
}

Word AlgXState::initial_position(Slot slot) const {
  // Prose of §4.2: processors start on the first P leaves; Remark 5(i)
  // optionally spaces them n_pad/P apart. The ACC stand-in instead draws a
  // fresh random leaf (seeded from data a restarted processor still has:
  // the seed, its PID, and the synchronous clock) — "coupon clipping".
  Addr idx;
  if (descent_ != Descent::kPidBits) {
    idx = static_cast<Addr>(mix64(config_.seed, pid_, slot) % layout_.n_pad);
  } else if (config_.spaced_placement) {
    idx = (static_cast<Addr>(pid_) * layout_.n_pad) / layout_.p;
  } else {
    idx = static_cast<Addr>(pid_) % layout_.n_pad;
  }
  return static_cast<Word>(layout_.leaf(idx));
}

bool AlgXState::cycle(CycleContext& ctx) {
  const Word stamp = config_.stamp;

  switch (mode_) {
    case Mode::kNavigate:
      return navigate(ctx);

    case Mode::kTask: {
      // Micro-cycle task_k_ of the leaf's task. Restart loses this private
      // progress; the task then re-runs from k = 0 (tasks are idempotent).
      config_.task->run(ctx, layout_.first_element(task_leaf_), task_k_,
                        scratch_);
      if (++task_k_ >= config_.task->cycles_per_task()) {
        mode_ = Mode::kTaskDoneMark;
      }
      return true;
    }

    case Mode::kTaskDoneMark:
      // Publish the element's visited marker; the next navigate cycle will
      // observe it and mark the leaf done in the progress tree.
      ctx.write(layout_.x(layout_.first_element(task_leaf_)),
                stamped(stamp, 1));
      mode_ = Mode::kNavigate;
      return true;
  }
  RFSP_CHECK_MSG(false, "unreachable");
  return false;
}

bool AlgXState::navigate(CycleContext& ctx) {
  const Word stamp = config_.stamp;

  // Figure 5: `where := w[PID]` — the stable traversal position.
  const Word wv = payload_of(ctx.read(layout_.w(pid_)), stamp);
  if (wv == 0) {
    // Never initialized (or failed before the first write completed):
    // (re-)run the initial assignment to a leaf.
    ctx.write(layout_.w(pid_), stamped(stamp, initial_position(ctx.slot())));
    return true;
  }
  if (wv == layout_.exited()) {
    return false;  // `while w[PID] != 0` terminated; nothing left to do
  }

  const Addr pos = static_cast<Addr>(wv);
  RFSP_CHECK_MSG(pos >= 1 && pos < 2 * layout_.n_pad,
                 "corrupt traversal position");

  // `done := d[where]`.
  const bool done = payload_of(ctx.read(layout_.d(pos)), stamp) != 0;
  if (done) {
    // The coupon-clipping variant escapes a finished *leaf* by sampling a
    // fresh random leaf half the time; the other half — and every done
    // interior node — climbs, so once the tree is complete a processor
    // drains to the root in O(height) expected moves (jumping from interior
    // nodes too would make the final exit take Θ(N) expected moves).
    if (descent_ == Descent::kCoupon && pos >= layout_.n_pad && pos != 1) {
      if (!rng_) rng_.emplace(mix64(config_.seed, pid_, ctx.slot()));
      if (rng_->below(2) != 0) {
        const Addr target = layout_.leaf(
            static_cast<Addr>(rng_->below(layout_.n_pad)));
        ctx.write(layout_.w(pid_), stamped(stamp, static_cast<Word>(target)));
        return true;
      }
    }
    // Move one level up; above the root means the whole tree is finished.
    const Addr up = TreeNav::parent(pos);
    ctx.write(layout_.w(pid_),
              stamped(stamp, up == 0 ? layout_.exited()
                                     : static_cast<Word>(up)));
    return true;
  }

  if (pos >= layout_.n_pad) {  // at a leaf
    const Addr element = pos - layout_.n_pad;
    if (element >= layout_.n) {
      // Padding: structurally done, publish the mark.
      ctx.write(layout_.d(pos), stamped(stamp, 1));
      return true;
    }
    const bool visited =
        payload_of(ctx.read(layout_.x(element)), stamp) != 0;
    if (visited) {
      ctx.write(layout_.d(pos), stamped(stamp, 1));  // second visit: mark done
      if (done_flag_ && pos == 1) {
        // Degenerate one-node tree: the leaf is also the root.
        ctx.write(*done_flag_, stamped(stamp, 1));
      }
      return true;
    }
    if (config_.task == nullptr) {
      // Plain Write-All: the visit is the assignment x[i] := 1.
      ctx.write(layout_.x(element), stamped(stamp, 1));
    } else {
      mode_ = Mode::kTask;
      task_leaf_ = pos;
      task_k_ = 0;
      std::fill(scratch_.begin(), scratch_.end(), Word{0});
    }
    return true;
  }

  // Interior node: inspect both subtrees (padding counts as done without a
  // read; the read budget then still fits 4).
  const Addr left = TreeNav::left(pos);
  const Addr right = TreeNav::right(pos);
  const bool left_done =
      layout_.structurally_done(left) ||
      payload_of(ctx.read(layout_.d(left)), stamp) != 0;
  const bool right_done =
      layout_.structurally_done(right) ||
      payload_of(ctx.read(layout_.d(right)), stamp) != 0;

  if (left_done && right_done) {
    ctx.write(layout_.d(pos), stamped(stamp, 1));
    if (done_flag_ && pos == 1) ctx.write(*done_flag_, stamped(stamp, 1));
    return true;
  }
  Addr next;
  if (left_done != right_done) {
    next = left_done ? right : left;  // go to the unfinished side
  } else if (descent_ != Descent::kPidBits) {
    // Randomized variants: contested nodes resolve by a private coin flip.
    if (!rng_) rng_.emplace(mix64(config_.seed, pid_, ctx.slot()));
    next = rng_->below(2) != 0 ? right : left;
  } else {
    // Both contested: descend by the PID bit at this depth (bit 0 = most
    // significant of the height-bit PID; only log N bits of the PID are
    // significant — Lemma 4.5).
    const unsigned depth = floor_log2(pos);
    const std::uint64_t significant =
        static_cast<std::uint64_t>(pid_) % layout_.n_pad;
    next = msb_bit(significant, depth, layout_.height) ? right : left;
  }
  ctx.write(layout_.w(pid_), stamped(stamp, static_cast<Word>(next)));
  return true;
}

// ---------------------------------------------------------------------------
// AlgX

AlgX::AlgX(WriteAllConfig config)
    : WriteAllProgram(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {}

std::unique_ptr<ProcessorState> AlgX::boot(Pid pid) const {
  return std::make_unique<AlgXState>(config_, layout_, pid);
}

std::unique_ptr<ProcessorState> AlgX::load_state(
    Pid pid, std::span<const Word> data) const {
  auto state = std::make_unique<AlgXState>(config_, layout_, pid);
  WordReader r(data);
  state->load_words(r);
  RFSP_CHECK_MSG(r.exhausted(), "trailing words in an X checkpoint state");
  return state;
}

bool AlgX::goal(const SharedMemory& mem) const {
  return payload_of(mem.read(layout_.d(1)), config_.stamp) != 0;
}

std::optional<PhaseSchedule> AlgX::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"descend"};
  schedule.phase_of = [](Slot) { return std::uint32_t{0}; };
  return schedule;
}

}  // namespace rfsp
