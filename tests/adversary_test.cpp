// Behaviour of the general-purpose adversaries, including Example 2.2's
// thrashing result: S' (charging incomplete cycles) explodes while S stays
// small — the motivation for the completed-work measure.
#include <gtest/gtest.h>

#include "fault/adversaries.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

TEST(RandomAdversary, DeterministicPerSeed) {
  const WriteAllConfig config{.n = 128, .p = 32};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.2;
  opt.restart_prob = 0.6;

  RandomAdversary a1(17, opt), a2(17, opt);
  const auto r1 = run_writeall(WriteAllAlgo::kX, config, a1);
  const auto r2 = run_writeall(WriteAllAlgo::kX, config, a2);
  EXPECT_TRUE(r1.solved);
  EXPECT_EQ(r1.run.tally.completed_work, r2.run.tally.completed_work);
  EXPECT_EQ(r1.run.tally.pattern_size(), r2.run.tally.pattern_size());
}

TEST(RandomAdversary, InjectsFailuresAndRestarts) {
  const WriteAllConfig config{.n = 256, .p = 64};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.1;
  opt.restart_prob = 0.5;
  RandomAdversary adversary(3, opt);
  const auto out = run_writeall(WriteAllAlgo::kCombinedVX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_GT(out.run.tally.failures, 0u);
  EXPECT_GT(out.run.tally.restarts, 0u);
}

TEST(RandomAdversary, PatternBudgetRespectedForFailures) {
  const WriteAllConfig config{.n = 256, .p = 64};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.5;
  opt.restart_prob = 1.0;  // immediate restarts keep the run moving
  opt.max_pattern = 40;
  RandomAdversary adversary(11, opt);
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_LE(out.run.tally.failures, 40u);
}

TEST(BurstAdversary, ControlsPatternSizeDeterministically) {
  const WriteAllConfig config{.n = 256, .p = 64};
  BurstAdversaryOptions opt;
  opt.period = 4;
  opt.count = 8;
  BurstAdversary adversary(opt);
  const auto out = run_writeall(WriteAllAlgo::kCombinedVX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_GT(out.run.tally.failures, 0u);
  // Every burst of k failures is matched by k restarts (next decision).
  EXPECT_LE(out.run.tally.restarts, out.run.tally.failures);
}

TEST(ScheduledAdversary, ReplaysARecordedPatternExactly) {
  // Record an adaptive random run against deterministic algorithm X, then
  // replay its pattern as an off-line adversary: the executions coincide.
  const WriteAllConfig config{.n = 128, .p = 128};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.15;
  opt.restart_prob = 0.7;
  opt.fail_after_frac = 0.0;  // ScheduledAdversary fails every move mid-cycle

  RandomAdversary recordee(23, opt);
  FaultSchedule pattern;
  RecordingAdversary recorder(recordee, pattern);
  const auto recorded = run_writeall(WriteAllAlgo::kX, config, recorder);
  ASSERT_TRUE(recorded.solved);
  ASSERT_GT(pattern.move_count(), 0u);

  ScheduledAdversary replay(pattern);
  const auto replayed = run_writeall(WriteAllAlgo::kX, config, replay);
  EXPECT_TRUE(replayed.solved);
  EXPECT_EQ(replayed.run.tally.completed_work,
            recorded.run.tally.completed_work);
  EXPECT_EQ(replayed.run.tally.slots, recorded.run.tally.slots);
  EXPECT_EQ(replay.skipped(), 0u);
}

TEST(ScheduledAdversary, SkipsInapplicableEvents) {
  FaultSchedule pattern;
  pattern.entries.push_back(
      {0, {.fail_mid_cycle = {200},  // out of range PID
           .restart = {0}}});        // nobody failed yet
  pattern.entries.push_back(
      {1, {.cell_faults = {3}, .cache_drop = {1}}});  // not replayed
  ScheduledAdversary adversary(pattern);
  const WriteAllConfig config{.n = 16, .p = 4};
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.run.tally.pattern_size(), 0u);
  EXPECT_EQ(adversary.skipped(), 4u);
}

TEST(ScheduledAdversary, FailsEveryMoveMidCycleThenRestarts) {
  // Definition 2.1's pattern has one failure tag: `mid`, `after` and `torn`
  // moves all become mid-cycle failures, applied before the restarts.
  FaultSchedule pattern;
  pattern.entries.push_back({2,
                             {.fail_mid_cycle = {1},
                              .fail_after_cycle = {2},
                              .restart = {2},
                              .torn = {{.pid = 3, .write_index = 0}}}});
  ScheduledAdversary scheduled(pattern);
  FaultSchedule seen;
  RecordingAdversary recorder(scheduled, seen);
  const WriteAllConfig config{.n = 16, .p = 8};
  const auto out = run_writeall(WriteAllAlgo::kX, config, recorder);
  EXPECT_TRUE(out.solved);
  ASSERT_EQ(seen.entries.size(), 1u);
  EXPECT_EQ(seen.entries[0].slot, 2u);
  const FaultDecision want{.fail_mid_cycle = {1, 2, 3}, .restart = {2}};
  EXPECT_EQ(seen.entries[0].decision, want);
  EXPECT_EQ(scheduled.skipped(), 0u);
}

TEST(ScheduledAdversary, RequiresAscendingSlots) {
  FaultSchedule pattern;
  pattern.entries.push_back({5, {.fail_mid_cycle = {0}}});
  pattern.entries.push_back({4, {.fail_mid_cycle = {1}}});
  EXPECT_THROW(ScheduledAdversary adversary(pattern), ConfigError);
}

TEST(ThrashingAdversary, InflatesAttemptedWorkQuadratically) {
  // Example 2.2 against the trivial assignment with P = N: one write lands
  // per slot, every other cycle is aborted and the casualties are revived.
  // S stays ~N while S' ~ N²/2.
  const Addr n = 64;
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
  ThrashingAdversary adversary;
  const auto out = run_writeall(WriteAllAlgo::kTrivial, config, adversary);
  EXPECT_TRUE(out.solved);
  const auto& t = out.run.tally;
  EXPECT_EQ(t.completed_work, n);  // exactly one completed cycle per slot
  EXPECT_GE(t.attempted_work, n * n / 4);  // Ω(P·N)
  EXPECT_GE(t.pattern_size(), n * n / 4);
}

TEST(ThrashingAdversary, CompletedWorkStaysSubquadraticForX) {
  // With the update-cycle accounting, thrashing no longer forces quadratic
  // *completed* work on a Write-All algorithm (§2.2).
  const Addr n = 128;
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
  ThrashingAdversary adversary;
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_LT(out.run.tally.completed_work, n * n / 2);
}

TEST(NoFailures, ProducesEmptyPattern) {
  const WriteAllConfig config{.n = 64, .p = 16};
  NoFailures none;
  FaultSchedule pattern;
  RecordingAdversary recorder(none, pattern);
  const auto out = run_writeall(WriteAllAlgo::kV, config, recorder);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.run.tally.pattern_size(), 0u);
  EXPECT_TRUE(pattern.entries.empty());
}

}  // namespace
}  // namespace rfsp
