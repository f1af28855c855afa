// The Theorem 4.1 executor: simulated programs must produce exactly the
// reference synchronous-PRAM result under every adversary, for every inner
// Write-All algorithm, with fewer physical than simulated processors.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "programs/chain.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rfsp {
namespace {

std::vector<Word> random_values(std::size_t n, std::uint64_t seed,
                                Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

TEST(SimLayout, RegionsAreDisjointAndOrdered) {
  PrefixSumProgram program(random_values(40, 1, 1000));
  const SimLayout layout(program, 8);
  EXPECT_EQ(layout.data, 0u);
  EXPECT_EQ(layout.regs, layout.data_cells);
  EXPECT_GE(layout.scratch, layout.regs);  // equal when registers() == 0
  EXPECT_GT(layout.phase, layout.scratch);
  EXPECT_GT(layout.total, layout.phase);
  EXPECT_EQ(layout.wa_compute.aux_end(), layout.wa_commit.aux_end());
  EXPECT_GT(layout.compute_cycles, layout.commit_cycles);
}

TEST(SimLayout, RejectsBadProcessorCounts) {
  PrefixSumProgram program(random_values(8, 1, 10));
  EXPECT_THROW(SimLayout(program, 9), ConfigError);  // P > N
}

TEST(PhaseWord, PackUnpack) {
  const Word w = phase_encode(77, 123456789);
  EXPECT_EQ(phase_pass(w), 77u);
  EXPECT_EQ(phase_start(w), 123456789u);
  EXPECT_EQ(phase_pass(0), 0u);
  EXPECT_EQ(phase_start(0), 0u);
}

TEST(ReferenceRun, MatchesClosedForms) {
  {
    PrefixSumProgram program({1, 2, 3, 4, 5});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    MaxReduceProgram program({5, 17, 3, 42, 9, 41});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    OddEvenSortProgram program({9, 1, 8, 2, 7, 3, 6});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    ListRankingProgram program({1, 2, 3, 3});  // chain 0→1→2→3, tail 3
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    MatMulProgram program({1, 2, 3, 4}, {5, 6, 7, 8}, 2);
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
}

TEST(Simulate, FaultFreeMatchesReference) {
  PrefixSumProgram program(random_values(64, 2, 100));
  NoFailures none;
  const SimResult result = simulate(program, none);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.memory, reference_run(program));
  EXPECT_TRUE(program.verify(result.memory));
  EXPECT_EQ(result.passes, 2 * program.steps());
}

TEST(Simulate, FewerPhysicalProcessors) {
  PrefixSumProgram program(random_values(64, 3, 100));
  for (Pid p : {Pid{1}, Pid{5}, Pid{16}, Pid{64}}) {
    NoFailures none;
    const SimResult result =
        simulate(program, none, {.physical_processors = p});
    ASSERT_TRUE(result.completed) << "p=" << p;
    EXPECT_TRUE(program.verify(result.memory)) << "p=" << p;
  }
}

struct SimCase {
  const char* label;
  SimInner inner;
};

// Without this, gtest prints the parameter's raw bytes, label pointer
// included, so the listed test names would change with every address
// layout.
void PrintTo(const SimCase& c, std::ostream* os) { *os << c.label; }

class SimInnerSuite : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimInnerSuite, AllProgramsUnderRandomRestarts) {
  const SimCase c = GetParam();
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.08;
  opt.restart_prob = 0.5;

  {
    PrefixSumProgram program(random_values(48, 4, 100));
    RandomAdversary adversary(71, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 16, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
    EXPECT_GT(r.tally.pattern_size(), 0u);
  }
  {
    MaxReduceProgram program(random_values(37, 5, 1000));
    RandomAdversary adversary(72, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 9, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
  }
  {
    OddEvenSortProgram program(random_values(24, 6, 50));
    RandomAdversary adversary(73, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 24, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inners, SimInnerSuite,
    ::testing::Values(SimCase{"VX", SimInner::kCombinedVX},
                      SimCase{"X", SimInner::kX},
                      SimCase{"V", SimInner::kV}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return std::string(info.param.label);
    });

TEST(Simulate, ListRankingUnderRandomRestarts) {
  // A longer dependency chain: ranks double-propagate through memory each
  // step, so any stale or lost write would corrupt the result.
  std::vector<Pid> next(33);
  for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
  next.back() = static_cast<Pid>(next.size() - 1);
  ListRankingProgram program(next);
  RandomAdversary adversary(74, {.fail_prob = 0.1, .restart_prob = 0.6});
  const SimResult r = simulate(program, adversary, {.physical_processors = 11});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(Simulate, MatMulWithRegistersUnderRandomRestarts) {
  // Registers live in simulated memory: losing a physical processor must
  // never lose a simulated accumulator.
  MatMulProgram program(random_values(36, 7, 10), random_values(36, 8, 10),
                        6);
  RandomAdversary adversary(75, {.fail_prob = 0.12, .restart_prob = 0.5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 12});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
}

TEST(Simulate, DeterministicGivenSeedAndPattern) {
  PrefixSumProgram program(random_values(32, 9, 100));
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.15;
  opt.restart_prob = 0.5;
  RandomAdversary a1(55, opt), a2(55, opt);
  const SimResult r1 = simulate(program, a1, {.physical_processors = 8});
  const SimResult r2 = simulate(program, a2, {.physical_processors = 8});
  EXPECT_EQ(r1.tally.completed_work, r2.tally.completed_work);
  EXPECT_EQ(r1.memory, r2.memory);
}

TEST(Simulate, BurstStormEveryFewSlots) {
  OddEvenSortProgram program(random_values(16, 10, 30));
  BurstAdversary adversary({.period = 3, .count = 5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 16});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_GT(r.tally.failures, 0u);
}

TEST(Simulate, SingleSimulatedProcessor) {
  // Degenerate N = 1: one task per pass, one physical processor.
  PrefixSumProgram program({41});
  NoFailures none;
  const SimResult r = simulate(program, none, {.physical_processors = 1});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.memory[0], 41);
}

TEST(Simulate, BitonicSortUnderRestartStorm) {
  BitonicSortProgram program(random_values(32, 13, 500));
  ASSERT_EQ(program.steps(), 15u);  // log²-ish schedule: Σ k for k=1..5
  RandomAdversary adversary(82, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r =
      simulate(program, adversary, {.physical_processors = 8});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(ReferenceRun, BitonicMatchesStdSort) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    BitonicSortProgram program(random_values(64, seed, 10000));
    EXPECT_TRUE(program.verify(reference_run(program))) << seed;
  }
}

TEST(Simulate, StencilUnderRestartStorm) {
  std::vector<Word> rod(40, 0);
  rod[0] = 1000;               // hot left boundary
  rod[rod.size() - 1] = 200;   // warm right boundary
  StencilProgram program(rod, /*rounds=*/25);
  RandomAdversary adversary(81, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 10});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(Simulate, UnderThePostOrderStalker) {
  // The Theorem 4.8 adversary aimed at the simulator's embedded X half:
  // expensive, but the simulation still completes correctly.
  PrefixSumProgram program(random_values(32, 12, 50));
  const SimLayout layout(program, 32);
  PostOrderStalker stalker(layout.wa_compute.x, /*stamp=*/0);
  // The stalker reads stamped w[] cells; epoch stamps rotate per pass, so
  // give it stamp 0 — payload_of() then sees positions only during pass 0.
  // That still exercises hostile interference; correctness must hold.
  const SimResult r = simulate(program, stalker, {.physical_processors = 32});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
}

TEST(ReferenceRun, DetectsSimulatedCommonViolations) {
  // A program whose step writes different values to one cell must be
  // rejected by the reference executor (and would trip the engine's COMMON
  // check under simulation).
  class Conflicting final : public SimProgram {
   public:
    std::string_view name() const override { return "conflicting"; }
    Pid processors() const override { return 2; }
    Addr memory_cells() const override { return 2; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid j, Step) const override {
      ctx.store(0, static_cast<Word>(j + 1));  // 1 vs 2 into cell 0
    }
    unsigned registers() const override { return 0; }
  };
  const Conflicting program;
  EXPECT_THROW((void)reference_run(program), std::logic_error);
}

TEST(Simulate, ChainedSortThenScanUnderFaults) {
  // Sort random keys, then compute prefix sums of the sorted array — a
  // two-phase application run end-to-end on the faulty machine.
  const std::vector<Word> keys = random_values(32, 14, 100);
  OddEvenSortProgram sorter(keys);
  PrefixSumProgram scanner(keys);  // same size; structure-only reuse
  ChainedProgram chain(sorter, scanner);
  ASSERT_EQ(chain.steps(), sorter.steps() + scanner.steps());

  RandomAdversary adversary(83, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r = simulate(chain, adversary, {.physical_processors = 8});
  ASSERT_TRUE(r.completed);

  // Expected: prefix sums over the sorted keys.
  std::vector<Word> expected = keys;
  std::sort(expected.begin(), expected.end());
  Word acc = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    acc = sim_word(acc + expected[i]);
    EXPECT_EQ(r.memory[i], acc) << "i=" << i;
  }
  EXPECT_EQ(r.memory, reference_run(chain));
}

TEST(Simulate, ChainValidation) {
  PrefixSumProgram small(random_values(8, 1, 10));
  PrefixSumProgram large(random_values(16, 1, 10));
  EXPECT_THROW(ChainedProgram chain(small, large), ConfigError);
}

// A program that under-declares its load budget (8 loads, declares 2).
class Greedy final : public SimProgram {
 public:
  std::string_view name() const override { return "greedy"; }
  Pid processors() const override { return 2; }
  Addr memory_cells() const override { return 8; }
  Step steps() const override { return 1; }
  void step(StepContext& ctx, Pid, Step) const override {
    Word sum = 0;
    for (Addr a = 0; a < 8; ++a) sum += ctx.load(a);  // 8 loads
    ctx.store(0, sum);
  }
  unsigned max_loads() const override { return 2; }  // lies
  unsigned max_stores() const override { return 1; }
  unsigned registers() const override { return 0; }
};

// A program that under-declares its store budget (4 stores, declares 1).
class Scattering final : public SimProgram {
 public:
  std::string_view name() const override { return "scattering"; }
  Pid processors() const override { return 2; }
  Addr memory_cells() const override { return 8; }
  Step steps() const override { return 1; }
  void step(StepContext& ctx, Pid j, Step) const override {
    for (Addr a = 0; a < 4; ++a) ctx.store(4 * j + a, 1);  // 4 stores
  }
  unsigned max_loads() const override { return 0; }
  unsigned max_stores() const override { return 1; }  // lies
  unsigned registers() const override { return 0; }
};

TEST(Simulate, LoadBudgetViolationIsReported) {
  // A program that under-declares its load budget must be rejected loudly,
  // not silently miscomputed.
  Greedy program;
  NoFailures none;
  EXPECT_THROW(simulate(program, none), ConfigError);
}

TEST(Simulate, StoreBudgetViolationIsReported) {
  // Same for stores: a step that writes more cells than it declares must
  // not have its log silently truncated.
  Scattering program;
  NoFailures none;
  EXPECT_THROW(simulate(program, none), ConfigError);
}

// The same budget errors on the batched backend: the lane form of the
// compute task runs the same checks.
void expect_batched_config_error(const SimProgram& program) {
  const SimLayout layout(program, 0);
  const auto outer =
      make_simulation_program(program, layout, SimInner::kCombinedVX);
  EngineOptions options;
  options.read_budget = 5;
  options.write_budget = 2;
  options.batch = true;
  Engine engine(*outer, options);
  ASSERT_TRUE(engine.batch_active());
  NoFailures none;
  EXPECT_THROW(engine.run(none), ConfigError);
}

TEST(Simulate, LoadBudgetViolationIsReportedBatched) {
  expect_batched_config_error(Greedy());
}

TEST(Simulate, StoreBudgetViolationIsReportedBatched) {
  expect_batched_config_error(Scattering());
}

// Forwards every call to `inner` and counts the step calls that exit by
// unwinding: read-set discovery must let `step` return normally.
class UnwindCounting final : public SimProgram {
 public:
  UnwindCounting(const SimProgram& inner, std::size_t& unwinds)
      : inner_(inner), unwinds_(unwinds) {}

  std::string_view name() const override { return inner_.name(); }
  Pid processors() const override { return inner_.processors(); }
  Addr memory_cells() const override { return inner_.memory_cells(); }
  Step steps() const override { return inner_.steps(); }
  void init(std::span<Word> memory) const override { inner_.init(memory); }
  void step(StepContext& ctx, Pid j, Step t) const override {
    const Guard guard(unwinds_);
    inner_.step(ctx, j, t);
  }
  unsigned registers() const override { return inner_.registers(); }
  unsigned max_loads() const override { return inner_.max_loads(); }
  unsigned max_stores() const override { return inner_.max_stores(); }
  CrcwModel discipline() const override { return inner_.discipline(); }

 private:
  class Guard {
   public:
    explicit Guard(std::size_t& unwinds)
        : unwinds_(unwinds), in_flight_(std::uncaught_exceptions()) {}
    ~Guard() {
      if (std::uncaught_exceptions() > in_flight_) ++unwinds_;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    std::size_t& unwinds_;
    int in_flight_;
  };

  const SimProgram& inner_;
  std::size_t& unwinds_;
};

TEST(Simulate, NoExceptionUnwindsThroughStep) {
  const auto adversary = [](bool faulty) -> std::unique_ptr<Adversary> {
    if (!faulty) return std::make_unique<NoFailures>();
    return std::make_unique<RandomAdversary>(
        91, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.5});
  };
  for (const auto& w : testing::all_sim_workloads(16, 5)) {
    for (const bool faulty : {false, true}) {
      std::size_t unwinds = 0;
      const UnwindCounting program(*w.program, unwinds);
      const SimResult r =
          simulate(program, *adversary(faulty), {.physical_processors = 5});
      ASSERT_TRUE(r.completed) << w.label;
      EXPECT_EQ(unwinds, 0u) << w.label;
      // ARBITRARY programs may elect other winners than the reference's
      // last-writer rule; the unwrapped executor is their oracle.
      if (program.discipline() == CrcwModel::kArbitrary) {
        EXPECT_EQ(r.memory, simulate(*w.program, *adversary(faulty),
                                     {.physical_processors = 5})
                                .memory)
            << w.label;
      } else {
        EXPECT_EQ(r.memory, reference_run(*w.program)) << w.label;
      }
    }
  }
}

TEST(Simulate, StepMayCatchExceptions) {
  // A step that guards its loads with catch (...) — e.g. around a library
  // call — must still see exactly the values it loaded.
  class Guarded final : public SimProgram {
   public:
    std::string_view name() const override { return "guarded"; }
    Pid processors() const override { return 8; }
    Addr memory_cells() const override { return 8; }
    Step steps() const override { return 3; }
    void init(std::span<Word> memory) const override {
      for (Addr a = 0; a < memory.size(); ++a) memory[a] = a + 1;
    }
    void step(StepContext& ctx, Pid j, Step) const override {
      Word sum = 0;
      for (Addr d = 0; d < 3; ++d) {
        try {
          sum += ctx.load((j + d) % 8);
        } catch (...) {
          sum += 1000;  // never taken: loads do not throw
        }
      }
      ctx.store(j, sum);
    }
    unsigned registers() const override { return 0; }
    unsigned max_loads() const override { return 3; }
    unsigned max_stores() const override { return 1; }
  };
  const Guarded program;
  NoFailures none;
  const SimResult clean = simulate(program, none, {.physical_processors = 3});
  ASSERT_TRUE(clean.completed);
  EXPECT_EQ(clean.memory, reference_run(program));
  RandomAdversary adversary(33, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult faulty =
      simulate(program, adversary, {.physical_processors = 3});
  ASSERT_TRUE(faulty.completed);
  EXPECT_EQ(faulty.memory, reference_run(program));
}

TEST(Simulate, StepExceptionPropagates) {
  // The step's own exception, raised only once its second load is fetched,
  // must escape simulate() rather than be mistaken for read-set discovery.
  class Failing final : public SimProgram {
   public:
    std::string_view name() const override { return "failing"; }
    Pid processors() const override { return 4; }
    Addr memory_cells() const override { return 4; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid j, Step) const override {
      const Word a = ctx.load(j);
      const Word b = ctx.load((j + 1) % 4);
      if (j == 2) throw std::runtime_error("step failed after two loads");
      ctx.store(j, a + b);
    }
    unsigned registers() const override { return 0; }
    unsigned max_loads() const override { return 2; }
    unsigned max_stores() const override { return 1; }
  };
  const Failing program;
  NoFailures none;
  EXPECT_THROW(simulate(program, none), std::runtime_error);
}

TEST(ParallelSim, CycleThreadsBitIdentical) {
  // The executor on a cycle_threads pool: each worker replays its own
  // lanes' steps (their speculative tails peek shared memory concurrently),
  // and the run must match the sequential one bit for bit.
  for (const auto& w : testing::all_sim_workloads(16, 3)) {
    const SimLayout layout(*w.program, 16);
    const auto outer =
        make_simulation_program(*w.program, layout, SimInner::kCombinedVX);
    WorkTally tallies[2];
    std::vector<Word> memories[2];
    const unsigned threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      EngineOptions options;
      options.read_budget = 5;  // the executor's update cycle (simulate())
      options.write_budget = 2;
      if (w.program->discipline() == CrcwModel::kArbitrary) {
        options.model = CrcwModel::kArbitrary;
      }
      options.cycle_threads = threads[i];
      options.lane_chunk = 2;
      Engine engine(*outer, options);
      RandomAdversary adversary(47, {.fail_prob = 0.1, .restart_prob = 0.5});
      const RunResult run = engine.run(adversary);
      ASSERT_TRUE(run.goal_met) << w.label;
      tallies[i] = run.tally;
      for (Addr a = 0; a < layout.data_cells; ++a) {
        memories[i].push_back(engine.memory().read(layout.data + a));
      }
    }
    EXPECT_EQ(tallies[0], tallies[1]) << w.label;
    EXPECT_EQ(memories[0], memories[1]) << w.label;
  }
}

}  // namespace
}  // namespace rfsp
