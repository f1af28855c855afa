// The Theorem 4.1 executor on the batched SoA backend: the simulation
// kernel (sim/simulator.cpp over writeall's TaskLanes) must be
// indistinguishable from the interpreter — same tally, same final memory,
// same binary trace bytes, same checkpoints — for every workload, under
// every adversary, at every cycle_threads count, and checkpoints must
// resume across the two modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "obs/binary_trace.hpp"
#include "pram/engine.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"

namespace rfsp {
namespace {

constexpr Addr kN = 16;
constexpr Pid kP = 6;

struct SimRun {
  RunResult run;
  bool batch_active = false;
  std::string fallback;
  std::vector<Word> memory;  // the whole physical machine
  std::string trace;         // binary trace bytes
  std::vector<EngineCheckpoint> checkpoints;
};

std::unique_ptr<Adversary> make_adversary(const std::string& kind,
                                          const SimLayout& layout) {
  if (kind == "random") {
    return std::make_unique<RandomAdversary>(
        47, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.5});
  }
  if (kind == "burst") {
    return std::make_unique<BurstAdversary>(
        BurstAdversaryOptions{.period = 3, .count = 2, .max_pattern = 400});
  }
  if (kind == "stalker") {
    // Aimed at the compute passes' X half; stamp 0 lets it read positions
    // during pass 0 only (see Simulate.UnderThePostOrderStalker). It
    // inspects cycle internals, so the kernel mirrors every CycleTrace.
    return std::make_unique<PostOrderStalker>(layout.wa_compute.x, 0);
  }
  return std::make_unique<NoFailures>();
}

EngineOptions sim_options(const SimProgram& program, bool batch,
                          unsigned threads) {
  EngineOptions options;  // the machine simulate() builds
  options.read_budget = 5;
  options.write_budget = 2;
  if (program.discipline() == CrcwModel::kArbitrary) {
    options.model = CrcwModel::kArbitrary;
  }
  options.batch = batch;
  options.cycle_threads = threads;
  options.lane_chunk = 2;  // let four threads split six lanes
  return options;
}

SimRun run_sim(const SimProgram& program, const std::string& adversary,
               bool batch, unsigned threads,
               SimInner inner = SimInner::kCombinedVX,
               Slot checkpoint_every = 0,
               const EngineCheckpoint* resume = nullptr) {
  const SimLayout layout(program, kP);
  const auto outer = make_simulation_program(program, layout, inner);
  std::ostringstream trace;
  SimRun out;
  {
    BinaryTraceWriter sink(trace);
    EngineOptions options = sim_options(program, batch, threads);
    options.sink = &sink;
    options.checkpoint_every = checkpoint_every;
    options.on_checkpoint = [&](const EngineCheckpoint& cp) {
      out.checkpoints.push_back(cp);
    };
    const std::unique_ptr<Adversary> adv = make_adversary(adversary, layout);
    Engine engine(*outer, options);
    if (resume != nullptr) engine.restore(*resume, adv.get());
    out.batch_active = engine.batch_active();
    out.fallback = engine.batch_fallback();
    out.run = engine.run(*adv);
    const auto words = engine.memory().words();
    out.memory.assign(words.begin(), words.end());
  }
  out.trace = trace.str();
  return out;
}

TEST(BatchEquivalence, Simulation) {
  for (const auto& w : testing::all_sim_workloads(kN, 3)) {
    const bool arbitrary = w.program->discipline() == CrcwModel::kArbitrary;
    for (const std::string adversary :
         {"none", "random", "burst", "stalker"}) {
      const SimRun ref = run_sim(*w.program, adversary, false, 1);
      ASSERT_TRUE(ref.run.goal_met) << w.label << " / " << adversary;
      for (const unsigned threads : {1u, 4u}) {
        for (const bool batch : {false, true}) {
          const std::string what = w.label + " / " + adversary +
                                   " / threads " + std::to_string(threads) +
                                   (batch ? " / batch" : " / interpreter");
          const SimRun run = run_sim(*w.program, adversary, batch, threads);
          // ARBITRARY programs keep the engine's existing fallback.
          EXPECT_EQ(run.batch_active, batch && !arbitrary) << what;
          EXPECT_EQ(run.fallback, batch && arbitrary ? "crcw-model" : "")
              << what;
          EXPECT_EQ(run.run.tally, ref.run.tally) << what;
          EXPECT_EQ(run.memory, ref.memory) << what;
          EXPECT_EQ(run.trace, ref.trace) << what;
        }
      }
    }
  }
}

TEST(BatchEquivalence, SimulationInnerAlgorithms) {
  // SimInner::kX and kV run the X and V halves of the task-mode lanes on
  // their own; checkpoints are compared slot by slot, which pins the lane
  // state to the interpreter states' word streams.
  const auto workloads = testing::all_sim_workloads(kN, 3);
  for (const SimInner inner :
       {SimInner::kCombinedVX, SimInner::kX, SimInner::kV}) {
    for (const auto& w : workloads) {
      if (w.program->discipline() == CrcwModel::kArbitrary) continue;
      const std::string what =
          w.label + " / inner " + std::to_string(static_cast<int>(inner));
      const SimRun interp =
          run_sim(*w.program, "random", false, 1, inner, /*every=*/1);
      const SimRun batch =
          run_sim(*w.program, "random", true, 1, inner, /*every=*/1);
      ASSERT_TRUE(batch.batch_active) << what;
      EXPECT_EQ(batch.run.tally, interp.run.tally) << what;
      EXPECT_EQ(batch.memory, interp.memory) << what;
      EXPECT_EQ(batch.trace, interp.trace) << what;
      ASSERT_EQ(batch.checkpoints.size(), interp.checkpoints.size()) << what;
      for (std::size_t i = 0; i < batch.checkpoints.size(); ++i) {
        ASSERT_EQ(batch.checkpoints[i], interp.checkpoints[i])
            << what << " checkpoint " << i;
      }
    }
  }
}

TEST(BatchCheckpoint, SimulationResumesAcrossModes) {
  for (const auto& w : testing::all_sim_workloads(kN, 5)) {
    if (w.program->discipline() == CrcwModel::kArbitrary) continue;
    const SimRun straight = run_sim(*w.program, "random", false, 1);
    for (const bool saved_batched : {false, true}) {
      const SimRun saver = run_sim(*w.program, "random", saved_batched, 1,
                                   SimInner::kCombinedVX, /*every=*/5);
      ASSERT_FALSE(saver.checkpoints.empty()) << w.label;
      const std::size_t step =
          std::max<std::size_t>(saver.checkpoints.size() / 4, 1);
      for (std::size_t i = 0; i < saver.checkpoints.size(); i += step) {
        const EngineCheckpoint& cp = saver.checkpoints[i];
        const std::string what = w.label + " saved " +
                                 (saved_batched ? "batch" : "interpreter") +
                                 " at slot " + std::to_string(cp.slot);
        const SimRun resumed =
            run_sim(*w.program, "random", !saved_batched, 1,
                    SimInner::kCombinedVX, /*every=*/0, &cp);
        EXPECT_EQ(resumed.batch_active, !saved_batched) << what;
        EXPECT_EQ(resumed.run.tally, straight.run.tally) << what;
        EXPECT_EQ(resumed.memory, straight.memory) << what;
      }
    }
  }
}

}  // namespace
}  // namespace rfsp
