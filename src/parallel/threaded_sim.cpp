#include "parallel/threaded_sim.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "parallel/threaded.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "writeall/algx.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

namespace {

constexpr Word kPayloadOnly = kPayloadMask;

// Memory map for the threaded executor. All regions are stamped cells.
struct TsLayout {
  explicit TsLayout(const SimProgram& program, unsigned workers)
      : n(program.processors()),
        data_cells(program.memory_cells()),
        reg_count(program.registers()),
        max_writes(program.max_stores() + program.registers()) {
    data = 0;
    regs = data + data_cells;
    scratch = regs + static_cast<Addr>(n) * reg_count;
    scratch_stride = 1 + 2 * static_cast<Addr>(max_writes);
    phase = scratch + static_cast<Addr>(n) * scratch_stride;
    markers = phase + 1;
    x = XLayout(markers, markers + n, n, static_cast<Pid>(workers));
    total = x.aux_end();
  }

  Pid n;
  Addr data_cells;
  unsigned reg_count;
  unsigned max_writes;
  Addr data = 0, regs = 0, scratch = 0, phase = 0, markers = 0;
  Addr scratch_stride = 0;
  Addr total = 0;
  XLayout x{0, 1, 1, 1};

  Addr reg_cell(Pid j, unsigned r) const {
    return regs + static_cast<Addr>(j) * reg_count + r;
  }
  Addr log_base(Addr task) const {
    return scratch + task * scratch_stride;
  }
};

// Direct step context over atomic stamped memory: loads take the latest
// committed payload; stores collect into an overlay emitted afterwards.
class ThreadStepContext final : public StepContext {
 public:
  ThreadStepContext(const TsLayout& layout, AtomicMemory& mem, Pid j)
      : layout_(layout), mem_(mem), j_(j) {}

  Word load(Addr a) override {
    RFSP_CHECK(a < layout_.data_cells);
    return fetch(layout_.data + a);
  }
  void store(Addr a, Word v) override {
    RFSP_CHECK(a < layout_.data_cells);
    overlay_[layout_.data + a] = sim_word(v);
  }
  Word reg(unsigned r) override {
    RFSP_CHECK(r < layout_.reg_count);
    return fetch(layout_.reg_cell(j_, r));
  }
  void set_reg(unsigned r, Word v) override {
    RFSP_CHECK(r < layout_.reg_count);
    overlay_[layout_.reg_cell(j_, r)] = sim_word(v);
  }

  const std::map<Addr, Word>& writes() const { return overlay_; }

 private:
  Word fetch(Addr abs) {
    if (const auto it = overlay_.find(abs); it != overlay_.end()) {
      return it->second;
    }
    return mem_.load(abs) & kPayloadOnly;  // latest committed payload
  }

  const TsLayout& layout_;
  AtomicMemory& mem_;
  Pid j_;
  std::map<Addr, Word> overlay_;
};

class SimWorker {
 public:
  SimWorker(const SimProgram& program, const TsLayout& layout,
            AtomicMemory& mem, const ThreadedSimOptions& opt, Pid pid,
            std::atomic<bool>& kill, std::atomic<bool>& abort,
            std::atomic<std::uint64_t>& iters,
            std::atomic<std::uint64_t>& failures)
      : program_(program), layout_(layout), mem_(mem), opt_(opt), pid_(pid),
        kill_(kill), abort_(abort), iters_(iters), failures_(failures) {}

  void operator()() {
    const std::uint64_t final_pass = 2 * program_.steps();
    std::uint64_t local_iters = 0;
    while (!abort_.load(std::memory_order_relaxed)) {
      if (kill_.exchange(false)) failures_.fetch_add(1);  // lose locals
      ++local_iters;

      const std::uint64_t pass =
          static_cast<std::uint64_t>(mem_.load(layout_.phase));
      if (pass >= final_pass) break;
      const Word stamp = static_cast<Word>(pass) + 1;

      // A finished root means the pass is complete: advance the phase.
      if (payload_of(mem_.load(layout_.x.d(1)), stamp) != 0) {
        advance_phase(pass);
        continue;
      }
      navigate(pass, stamp);
    }
    iters_.fetch_add(local_iters);
  }

 private:
  void advance_phase(std::uint64_t pass) {
    // The phase word is a plain monotone counter: advance strictly
    // pass -> pass + 1; a straggler's CAS (stale `pass`) simply fails.
    mem_.compare_exchange(layout_.phase, static_cast<Word>(pass),
                          static_cast<Word>(pass) + 1);
  }

  void navigate(std::uint64_t pass, Word stamp) {
    const XLayout& x = layout_.x;
    const Word wv = payload_of(mem_.load(x.w(pid_)), stamp);
    if (wv == 0) {
      const Addr idx = static_cast<Addr>(pid_) % x.n_pad;
      mem_.store(x.w(pid_), stamped(stamp, static_cast<Word>(x.leaf(idx))));
      return;
    }
    if (wv == x.exited()) {
      advance_phase(pass);  // we drained through a finished root
      return;
    }
    const Addr pos = static_cast<Addr>(wv);

    if (payload_of(mem_.load(x.d(pos)), stamp) != 0) {
      const Addr up = pos / 2;
      mem_.store(x.w(pid_),
                 stamped(stamp, up == 0 ? x.exited()
                                        : static_cast<Word>(up)));
      return;
    }

    if (pos >= x.n_pad) {  // leaf
      const Addr element = pos - x.n_pad;
      if (element >= x.n ||
          payload_of(mem_.load(layout_.markers + element), stamp) != 0) {
        mem_.store_if_newer(x.d(pos), stamped(stamp, 1));
      } else {
        run_task(pass, stamp, element);
        mem_.store_if_newer(layout_.markers + element, stamped(stamp, 1));
      }
      return;
    }

    const Addr left = 2 * pos;
    const Addr right = 2 * pos + 1;
    const bool ld = x.structurally_done(left) ||
                    payload_of(mem_.load(x.d(left)), stamp) != 0;
    const bool rd = x.structurally_done(right) ||
                    payload_of(mem_.load(x.d(right)), stamp) != 0;
    if (ld && rd) {
      mem_.store_if_newer(x.d(pos), stamped(stamp, 1));
      return;
    }
    Addr next;
    if (ld != rd) {
      next = ld ? right : left;
    } else {
      const unsigned depth = floor_log2(pos);
      const std::uint64_t significant =
          static_cast<std::uint64_t>(pid_) % x.n_pad;
      next = msb_bit(significant, depth, x.height) ? right : left;
    }
    mem_.store(x.w(pid_), stamped(stamp, static_cast<Word>(next)));
  }

  void run_task(std::uint64_t pass, Word stamp, Addr task) {
    const Step t = pass / 2;
    if (pass % 2 == 0) {
      // Compute pass: run the whole simulated step, then publish its write
      // log — pairs first, the count last (readers key on the count).
      ThreadStepContext ctx(layout_, mem_, static_cast<Pid>(task));
      program_.step(ctx, static_cast<Pid>(task), t);
      const auto& writes = ctx.writes();
      RFSP_CHECK_MSG(writes.size() <= layout_.max_writes,
                     "SimProgram::step exceeds its declared store budget");
      const Addr base = layout_.log_base(task);
      Addr idx = 0;
      for (const auto& [addr, value] : writes) {
        mem_.store_if_newer(base + 1 + 2 * idx,
                            stamped(stamp, static_cast<Word>(addr)));
        mem_.store_if_newer(base + 2 + 2 * idx, stamped(stamp, value));
        ++idx;
      }
      mem_.store_if_newer(base,
                          stamped(stamp, static_cast<Word>(writes.size())));
    } else {
      // Commit pass: apply log `task` (written with the compute pass's
      // stamp) into the simulated memory at this pass's stamp.
      const Word log_stamp = stamp - 1;
      const Addr base = layout_.log_base(task);
      const Word count = payload_of(mem_.load(base), log_stamp);
      for (Word i = 0; i < count; ++i) {
        const Word addr_cell = mem_.load(base + 1 + 2 * static_cast<Addr>(i));
        const Word value_cell =
            mem_.load(base + 2 + 2 * static_cast<Addr>(i));
        // A straggler descheduled after reading the count may find the log
        // already rewritten by a later compute pass. Those pairs are not
        // this log's (payload_of would read them as address 0, value 0),
        // and this pass is over, so stop.
        if ((addr_cell >> kPayloadBits) != log_stamp ||
            (value_cell >> kPayloadBits) != log_stamp) {
          return;
        }
        const auto addr = static_cast<Addr>(addr_cell & kPayloadOnly);
        RFSP_CHECK_MSG(addr < layout_.scratch, "log address out of range");
        mem_.store_if_newer(addr, stamped(stamp, value_cell & kPayloadOnly));
      }
    }
  }

  const SimProgram& program_;
  const TsLayout& layout_;
  AtomicMemory& mem_;
  const ThreadedSimOptions& opt_;
  Pid pid_;
  std::atomic<bool>& kill_;
  std::atomic<bool>& abort_;
  std::atomic<std::uint64_t>& iters_;
  std::atomic<std::uint64_t>& failures_;
};

}  // namespace

ThreadedSimResult simulate_threaded(const SimProgram& program,
                                    const ThreadedSimOptions& options) {
  if (options.workers < 1) throw ConfigError("need at least one worker");
  if (options.workers > program.processors()) {
    throw ConfigError("algorithm X requires P <= N");
  }
  if (program.discipline() == CrcwModel::kArbitrary ||
      program.discipline() == CrcwModel::kPriority) {
    throw ConfigError(
        "the threaded executor supports COMMON-compatible disciplines; use "
        "sim/simulator.hpp for ARBITRARY");
  }

  const TsLayout layout(program, options.workers);
  AtomicMemory mem(layout.total);

  // Input at epoch 0 (stamped(0, v) == v, and every commit stamp is >= 2).
  {
    std::vector<Word> input(layout.data_cells, Word{0});
    program.init(input);
    for (Addr i = 0; i < layout.data_cells; ++i) {
      if (input[i] != 0) mem.store(layout.data + i, sim_word(input[i]));
    }
  }

  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> iters{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::atomic<bool>> kill(options.workers);
  for (auto& k : kill) k.store(false);

  // Worker exceptions (program-contract violations) surface after join.
  std::mutex error_mutex;
  std::string error;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options.workers);
  for (unsigned w = 0; w < options.workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        SimWorker(program, layout, mem, options, static_cast<Pid>(w),
                  kill[w], abort, iters, failures)();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error.empty()) error = e.what();
        abort.store(true);
      }
    });
  }

  const std::uint64_t final_pass = 2 * program.steps();
  if (options.failures_per_worker > 0) {
    Rng rng(mix64(options.seed, 0xfa17, 0x2e57));
    while (!abort.load() &&
           static_cast<std::uint64_t>(mem.load(layout.phase)) < final_pass) {
      kill[rng.below(options.workers)].store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(50 / options.failures_per_worker + 1)));
    }
  }

  for (auto& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();
  if (!error.empty()) throw ConfigError("threaded simulation: " + error);

  ThreadedSimResult result;
  result.completed =
      static_cast<std::uint64_t>(mem.load(layout.phase)) >= final_pass;
  result.memory.reserve(layout.data_cells);
  for (Addr i = 0; i < layout.data_cells; ++i) {
    result.memory.push_back(mem.load(layout.data + i) & kPayloadOnly);
  }
  result.loop_iterations = iters.load();
  result.injected_failures = failures.load();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace rfsp
