// Golden determinism locks: every algorithm is deterministic given its
// configuration (and seed, for randomized pieces), so exact completed-work
// values are stable across runs and refactorings. A change here is a
// behaviour change and must be deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "pram/engine.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "util/stats.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

std::uint64_t faultfree_work(WriteAllAlgo algo, Addr n, Pid p) {
  NoFailures none;
  const auto out = run_writeall(algo, {.n = n, .p = p, .seed = 1}, none);
  EXPECT_TRUE(out.solved);
  return out.run.tally.completed_work;
}

TEST(Golden, FaultFreeWorkValues) {
  // P = N = 256 (and P = 1 for sequential).
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kTrivial, 256, 256), 256u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kSequential, 256, 1), 256u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kW, 256, 256), 7424u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kV, 256, 256), 4864u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kX, 256, 256), 4864u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kCombinedVX, 256, 256), 9472u);
  EXPECT_EQ(faultfree_work(WriteAllAlgo::kAcc, 256, 256), 8192u);
}

TEST(Golden, FaultFreeSlotCounts) {
  // X fault-free with P = N is a lock-step climb: slots = 2 leaf visits +
  // ~2·log₂N of ascent/marking. These exact values pin the schedule.
  NoFailures a, b, c;
  EXPECT_EQ(run_writeall(WriteAllAlgo::kX, {.n = 256, .p = 256}, a)
                .run.tally.slots,
            19u);
  EXPECT_EQ(run_writeall(WriteAllAlgo::kX, {.n = 1024, .p = 1024}, b)
                .run.tally.slots,
            23u);
  EXPECT_EQ(run_writeall(WriteAllAlgo::kV, {.n = 1024, .p = 1024}, c)
                .run.tally.slots,
            25u);  // one V iteration (7 + 10 + 8)
}

TEST(Golden, SeededAdversaryRun) {
  RandomAdversary adversary(17, {.fail_prob = 0.2, .restart_prob = 0.6});
  const auto out = run_writeall(WriteAllAlgo::kX, {.n = 128, .p = 32},
                                adversary);
  ASSERT_TRUE(out.solved);
  // Locks the RNG stream, the adversary's sampling order, and the engine's
  // slot mechanics all at once.
  const auto& t = out.run.tally;
  EXPECT_EQ(t.completed_work + t.pattern_size() + t.slots,
            t.completed_work + t.failures + t.restarts + t.slots);
  EXPECT_GT(t.failures, 0u);
}

// FNV-1a over (slot, pid, address) of every shared read of a run.
class ReadTraceHash final : public EngineAuditHook {
 public:
  void on_run_begin(const Program&, const EngineOptions&) override {}
  void on_slot_begin(Slot slot) override { slot_ = slot; }
  void on_read(Pid pid, Addr addr) override {
    mix(slot_);
    mix(pid);
    mix(addr);
  }
  void on_write(Pid, Addr, Word) override {}
  void on_snapshot(Pid) override {}
  void on_cycles_done(const SharedMemory&, Slot, std::span<const CycleTrace>,
                      std::span<const Pid>) override {}
  void on_transitions(Slot, const FaultDecision&) override {}
  void on_run_end() override {}

  std::uint64_t hash = 0xcbf29ce484222325ull;

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  Slot slot_ = 0;
};

TEST(Golden, SimulationTallies) {
  // The Theorem 4.1 executor's micro-cycle schedule, pinned for every
  // src/programs workload. The compute task's length is fixed, so the
  // tallies alone cannot see which cell a micro-cycle fetches; the read
  // trace hash does.
  struct Pin {
    const char* label;
    std::uint64_t s, s_prime, f, slots, passes, reads;
  };
  const Pin pins[] = {
      {"prefix-sum", 5853, 6498, 1289, 1302, 8, 0xb578035e7d524fe1ull},
      {"max-reduce", 5853, 6498, 1289, 1302, 8, 0x6709c0dd636cc184ull},
      {"list-ranking", 10480, 11593, 2224, 2298, 10, 0x9e2be00175c840ceull},
      {"odd-even-sort", 22823, 25319, 4991, 5038, 32, 0x7ab6181b1f5b0017ull},
      {"bitonic-sort", 14235, 15748, 3025, 3122, 20, 0xa11e9f797dfb1927ull},
      {"stencil", 17982, 19896, 3828, 3946, 24, 0xf091a6258294dfefull},
      {"matmul", 7498, 8303, 1609, 1654, 8, 0xacff4c3111ca03b8ull},
      {"leader-elect", 2528, 2789, 520, 548, 4, 0xa79212853c5b89e0ull},
      {"components", 163437, 181574, 36273, 36294, 128,
       0xd1f14616e79c5cb9ull},
      {"sort-scan", 28460, 31582, 6244, 6290, 40, 0x57eaa914189aa78bull},
  };
  const auto workloads = testing::all_sim_workloads(16, 7);
  ASSERT_EQ(workloads.size(), std::size(pins));
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Pin& pin = pins[i];
    ASSERT_EQ(workloads[i].label, pin.label);
    RandomAdversary adversary(29, {.fail_prob = 0.1, .restart_prob = 0.5});
    ReadTraceHash reads;
    const SimResult r = simulate(*workloads[i].program, adversary,
                                 {.physical_processors = 6, .audit = &reads});
    ASSERT_TRUE(r.completed) << pin.label;
    EXPECT_EQ(r.tally.completed_work, pin.s) << pin.label;
    EXPECT_EQ(r.tally.attempted_work, pin.s_prime) << pin.label;
    EXPECT_EQ(r.tally.pattern_size(), pin.f) << pin.label;
    EXPECT_EQ(r.tally.slots, pin.slots) << pin.label;
    EXPECT_EQ(r.passes, pin.passes) << pin.label;
    EXPECT_EQ(reads.hash, pin.reads) << pin.label;
  }
}

// --- stats utilities ---------------------------------------------------------

TEST(Stats, Summary) {
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(s.count, 8u);
}

TEST(Stats, SummarySingleValue) {
  const double one[] = {3.5};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  const double x[] = {1, 2, 3, 4};
  const double y[] = {3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

TEST(Stats, ExponentFitRecoversPower) {
  const double x[] = {2, 4, 8, 16};
  const double y[] = {4, 16, 64, 256};  // y = x²
  EXPECT_NEAR(fit_exponent(x, y), 2.0, 1e-9);
}

TEST(Stats, FitValidation) {
  const double x[] = {1.0};
  const double y[] = {2.0};
  EXPECT_THROW((void)fit_line(x, y), std::logic_error);
  const double same_x[] = {3.0, 3.0};
  const double any_y[] = {1.0, 2.0};
  EXPECT_THROW((void)fit_line(same_x, any_y), std::logic_error);
  const double neg[] = {-1.0, 2.0};
  EXPECT_THROW((void)fit_exponent(neg, any_y), std::logic_error);
}

TEST(Stats, MeasuredStalkerExponentViaFit) {
  // The E5 measurement as a regression-checked property: the post-order
  // stalker exponent, fitted over three sizes, lies around log₂3 ≈ 1.585
  // (small sizes overshoot slightly; the fit must clear 1.4 and stay under
  // 1.8 — well away from both N log N ≈ 1.1 and quadratic 2.0).
  std::vector<double> sizes, works;
  for (Addr n : {Addr{128}, Addr{256}, Addr{512}}) {
    const AlgX program({.n = n, .p = static_cast<Pid>(n)});
    PostOrderStalker adversary(program.layout());
    Engine engine(program);
    const RunResult result = engine.run(adversary);
    ASSERT_TRUE(result.goal_met);
    sizes.push_back(static_cast<double>(n));
    works.push_back(static_cast<double>(result.tally.completed_work));
  }
  const double exponent = fit_exponent(sizes, works);
  EXPECT_GT(exponent, 1.4);
  EXPECT_LT(exponent, 1.8);
}

}  // namespace
}  // namespace rfsp
