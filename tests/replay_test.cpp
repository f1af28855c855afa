// Record/replay (src/replay): JSONL round-trips, the determinism matrix
// ({W,V,X,VX} x {random,burst,halving,thrashing,chaos} reproduced bit for
// bit from a recorded schedule), violation-context enrichment, reproducer
// meta round-trips, and the regression corpus of minimized schedules.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/stalkers.hpp"
#include "obs/trace.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaAdversary;

FaultSchedule random_schedule(std::uint64_t seed) {
  Rng rng(seed);
  FaultSchedule s;
  s.meta["algo"] = "X";
  s.meta["n"] = std::to_string(rng.below(1000) + 1);
  s.meta["note"] = "line1\nline \"quoted\" \\ tab\t";
  Slot slot = rng.below(4);
  const std::size_t entries = rng.below(30);
  for (std::size_t i = 0; i < entries; ++i) {
    ScheduleEntry e;
    e.slot = slot;
    slot += 1 + rng.below(5);
    const auto fill = [&](std::vector<Pid>& v) {
      const std::size_t k = rng.below(4);
      for (std::size_t j = 0; j < k; ++j) {
        v.push_back(static_cast<Pid>(rng.below(64)));
      }
    };
    fill(e.decision.fail_mid_cycle);
    fill(e.decision.fail_after_cycle);
    fill(e.decision.restart);
    const std::size_t torn = rng.below(3);
    for (std::size_t j = 0; j < torn; ++j) {
      e.decision.torn.push_back({static_cast<Pid>(rng.below(64)),
                                 rng.below(4),
                                 static_cast<unsigned>(rng.below(64))});
    }
    if (!e.decision.empty()) s.entries.push_back(std::move(e));
  }
  return s;
}

TEST(ScheduleFormat, JsonlRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultSchedule original = random_schedule(seed);
    const std::string text = schedule_to_jsonl(original);
    const FaultSchedule reparsed = schedule_from_jsonl(text);
    ASSERT_EQ(original, reparsed) << "seed=" << seed << "\n" << text;
    // Serialization is canonical: a second trip is byte-identical.
    EXPECT_EQ(text, schedule_to_jsonl(reparsed)) << "seed=" << seed;
  }
}

TEST(ScheduleFormat, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_jsonl(""), ConfigError);
  EXPECT_THROW(schedule_from_jsonl(R"({"format":"other","version":1})"),
               ConfigError);
  EXPECT_THROW(
      schedule_from_jsonl(
          R"({"format":"rfsp-fault-schedule","version":99,"meta":{}})"),
      ConfigError);
  // Out-of-order entries.
  EXPECT_THROW(
      schedule_from_jsonl(
          "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
          "{\"t\":5,\"mid\":[1]}\n{\"t\":3,\"mid\":[2]}\n"),
      ConfigError);
  // Floats are not part of the format.
  EXPECT_THROW(
      schedule_from_jsonl(
          "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
          "{\"t\":1.5,\"mid\":[1]}\n"),
      ConfigError);
}

TEST(ScheduleFormat, EmptyScheduleRoundTrip) {
  const FaultSchedule empty;
  const std::string text = schedule_to_jsonl(empty);
  EXPECT_EQ(text,
            "{\"format\":\"rfsp-fault-schedule\",\"version\":1,"
            "\"meta\":{}}\n");
  const FaultSchedule back = schedule_from_jsonl(text);
  EXPECT_EQ(back, empty);
  EXPECT_EQ(back.move_count(), 0u);
}

TEST(ScheduleFormat, ToleratesBlankLines) {
  const FaultSchedule s = schedule_from_jsonl(
      "\n{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
      "\n{\"t\":2,\"mid\":[1]}\n  \n{\"t\":3,\"restart\":[1]}\n\n");
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.move_count(), 2u);
}

// Definition 2.1's failure pattern F as a schedule: ⟨failure, 3, 0⟩,
// ⟨restart, 3, 2⟩ and ⟨failure, 1, 2⟩ are three moves in two entries.
TEST(FaultSchedule, SizeAndCounts) {
  FaultSchedule s;
  s.entries.push_back({0, {.fail_mid_cycle = {3}}});
  s.entries.push_back({2, {.fail_mid_cycle = {1}, .restart = {3}}});
  EXPECT_EQ(s.move_count(), 3u);
  std::size_t failures = 0, restarts = 0;
  for (const ScheduleEntry& e : s.entries) {
    failures += e.decision.fail_mid_cycle.size();
    restarts += e.decision.restart.size();
  }
  EXPECT_EQ(failures, 2u);
  EXPECT_EQ(restarts, 1u);
}

TEST(FaultSchedule, TextRoundTrip) {
  FaultSchedule s;
  s.entries.push_back({1, {.fail_mid_cycle = {0}}});
  s.entries.push_back({4, {.fail_mid_cycle = {9}, .restart = {0}}});
  const std::string text = schedule_to_jsonl(s);
  EXPECT_EQ(text,
            "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
            "{\"t\":1,\"mid\":[0]}\n"
            "{\"t\":4,\"mid\":[9],\"restart\":[0]}\n");

  const FaultSchedule back = schedule_from_jsonl(text);
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.move_count(), 3u);
}

TEST(FaultSchedule, TextParsingRejectsGarbage) {
  const std::string header =
      "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n";
  EXPECT_THROW(schedule_from_jsonl(header + "{\"t\":1,\"mid\":[\"one\"]}\n"),
               ConfigError);
  EXPECT_THROW(
      schedule_from_jsonl(header + "{\"t\":9,\"mid\":[1]}\n"
                                   "{\"t\":2,\"mid\":[1]}\n"),
      ConfigError);
  EXPECT_THROW(schedule_from_jsonl(header + "F 1 2\n"), ConfigError);
  EXPECT_THROW(schedule_from_jsonl(header + "{\"t\":1,\"mid\":[1}\n"),
               ConfigError);
}

TEST(ScheduleFormat, MetaSpecRoundTrip) {
  FaultSchedule s;
  ReproSpec spec{.algo = WriteAllAlgo::kCombinedVX, .n = 777, .p = 33,
                 .seed = 42, .max_slots = 12345, .bit_atomic_writes = true};
  write_meta(spec, s, ProbeStatus::kModelViolation, "a note");
  const ReproSpec back = spec_from_meta(s);
  EXPECT_EQ(back.algo, spec.algo);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.p, spec.p);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.max_slots, spec.max_slots);
  EXPECT_EQ(back.bit_atomic_writes, spec.bit_atomic_writes);
  EXPECT_EQ(probe_status_from_string(s.meta.at("status")),
            ProbeStatus::kModelViolation);
  EXPECT_EQ(s.meta.at("note"), "a note");

  FaultSchedule incomplete;
  incomplete.meta["algo"] = "X";
  EXPECT_THROW(spec_from_meta(incomplete), ConfigError);
  incomplete.meta["n"] = "not-a-number";
  incomplete.meta["p"] = "4";
  EXPECT_THROW(spec_from_meta(incomplete), ConfigError);
}

// --- The determinism matrix -------------------------------------------------

struct RunCapture {
  WorkTally tally;
  bool solved = false;
  std::string events;  // JSONL trace-event stream
};

RunCapture run_captured(WriteAllAlgo algo, const WriteAllConfig& config,
                        Adversary& adversary, Slot max_slots) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  EngineOptions options;
  options.max_slots = max_slots;
  options.sink = &sink;
  const WriteAllOutcome out = run_writeall(algo, config, adversary, options);
  return {out.run.tally, out.solved, os.str()};
}

std::unique_ptr<Adversary> make_named(const std::string& name,
                                      std::uint64_t seed, Addr n) {
  if (name == "random") {
    return std::make_unique<RandomAdversary>(
        seed, RandomAdversaryOptions{.fail_prob = 0.2, .restart_prob = 0.5});
  }
  if (name == "burst") {
    return std::make_unique<BurstAdversary>(
        BurstAdversaryOptions{.period = 3, .count = 5});
  }
  if (name == "halving") return std::make_unique<HalvingAdversary>(0, n);
  if (name == "thrashing") return std::make_unique<ThrashingAdversary>();
  return std::make_unique<ChaosAdversary>(seed, /*allow_torn=*/false);
}

TEST(ReplayDeterminism, MatrixReproducesTallyAndTrace) {
  const WriteAllConfig config{.n = 64, .p = 16, .seed = 9};
  // Restart-heavy adversaries can legitimately starve W forever; the bound
  // makes those runs finite, and determinism must hold for the truncated
  // run too (identical unsolved outcome, identical trace).
  const Slot max_slots = 5000;
  for (WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                            WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    for (const std::string adversary_name :
         {"random", "burst", "halving", "thrashing", "chaos"}) {
      SCOPED_TRACE(std::string(to_string(algo)) + " x " + adversary_name);

      const auto inner = make_named(adversary_name, 9, config.n);
      FaultSchedule schedule;
      RecordingAdversary recorder(*inner, schedule);
      const RunCapture original =
          run_captured(algo, config, recorder, max_slots);

      // The schedule round-trips through its serialized form before the
      // replay, so the test covers the on-disk format, not just the
      // in-memory struct.
      const FaultSchedule reloaded =
          schedule_from_jsonl(schedule_to_jsonl(schedule));
      ReplayAdversary replay(reloaded);
      const RunCapture replayed =
          run_captured(algo, config, replay, max_slots);

      EXPECT_EQ(original.tally, replayed.tally);
      EXPECT_EQ(original.solved, replayed.solved);
      EXPECT_EQ(original.events, replayed.events);
    }
  }
}

TEST(ReplayDeterminism, SnapshotAndAccAlgorithms) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kSnapshot, WriteAllAlgo::kAcc}) {
    const WriteAllConfig config{.n = 64, .p = 16, .seed = 4};
    const auto inner = make_named("chaos", 21, config.n);
    FaultSchedule schedule;
    RecordingAdversary recorder(*inner, schedule);
    const RunCapture original = run_captured(algo, config, recorder, 20000);

    ReplayAdversary replay(schedule);
    const RunCapture replayed = run_captured(algo, config, replay, 20000);
    EXPECT_EQ(original.tally, replayed.tally);
    EXPECT_EQ(original.events, replayed.events);
  }
}

// --- The batched fast path survives record and replay ----------------------

TEST(ReplayFastPath, WrappersReportWhetherTheyInspectCycles) {
  RandomAdversary random(3);
  FaultSchedule schedule;
  EXPECT_FALSE(RecordingAdversary(random, schedule).inspects_cycles());
  EXPECT_FALSE(ReplayAdversary(schedule).inspects_cycles());

  const AlgX program({.n = 64, .p = 64});
  PostOrderStalker stalker(program.layout());
  EXPECT_TRUE(RecordingAdversary(stalker, schedule).inspects_cycles());
}

// Declares that it never reads cycle internals, then looks anyway: any
// buffered write it can see means the engine materialized cycle traces,
// i.e. the batched backend left its oblivious fast path.
class MaterializationProbe final : public Adversary {
 public:
  std::string_view name() const override { return "probe"; }
  bool inspects_cycles() const override { return false; }
  FaultDecision decide(const MachineView& view) override {
    for (Pid pid = 0; pid < view.processors(); ++pid) {
      if (!view.trace(pid).writes.empty()) saw_writes = true;
    }
    return {};
  }
  bool saw_writes = false;
};

TEST(ReplayFastPath, RecordingKeepsCycleTracesUnmaterialized) {
  const WriteAllConfig config{.n = 256, .p = 64};
  for (const bool batch : {false, true}) {
    EngineOptions options;
    options.batch = batch;
    MaterializationProbe probe;
    FaultSchedule schedule;
    RecordingAdversary recorder(probe, schedule);
    const auto out =
        run_writeall(WriteAllAlgo::kCombinedVX, config, recorder, options);
    ASSERT_TRUE(out.solved);
    // The interpreter always fills the write logs; the batched backend
    // must skip them under a recorder of an oblivious adversary.
    EXPECT_EQ(probe.saw_writes, !batch) << "batch=" << batch;
  }
}

TEST(ReplayFastPath, BatchedVxPlainRecordedAndReplayedAgree) {
  const WriteAllConfig config{.n = 1024, .p = 256};
  const RandomAdversaryOptions faults{.fail_prob = 0.05, .restart_prob = 0.5};
  EngineOptions options;
  options.batch = true;
  const auto run = [&](Adversary& adversary) {
    const auto program = make_writeall(WriteAllAlgo::kCombinedVX, config);
    Engine engine(*program, options);
    EXPECT_TRUE(engine.batch_active());
    const RunResult result = engine.run(adversary);
    const auto words = engine.memory().words();
    return std::make_pair(result.tally,
                          std::vector<Word>(words.begin(), words.end()));
  };

  RandomAdversary plain_adv(17, faults);
  const auto plain = run(plain_adv);

  RandomAdversary recorded_adv(17, faults);
  FaultSchedule schedule;
  RecordingAdversary recorder(recorded_adv, schedule);
  const auto recorded = run(recorder);
  ASSERT_GT(schedule.move_count(), 0u);

  ReplayAdversary replay(schedule_from_jsonl(schedule_to_jsonl(schedule)));
  const auto replayed = run(replay);

  EXPECT_EQ(plain.first, recorded.first);
  EXPECT_EQ(plain.first, replayed.first);
  EXPECT_EQ(plain.second, recorded.second);
  EXPECT_EQ(plain.second, replayed.second);
}

// The tree storage order never reaches the model, so a reproducer whose
// meta names one (schedules from builds that still had the van Emde Boas
// layout) replays to the same outcome with the key ignored.
TEST(ScheduleFormat, VebLayoutMetaIsIgnoredOnReplay) {
  const ReproSpec spec{.algo = WriteAllAlgo::kCombinedVX, .n = 128, .p = 32,
                       .seed = 3};
  RandomAdversary inner(8, {.fail_prob = 0.1, .restart_prob = 0.5});
  FaultSchedule schedule;
  RecordingAdversary recorder(inner, schedule);
  const WriteAllOutcome original = run_writeall(
      spec.algo, {.n = spec.n, .p = spec.p, .seed = spec.seed}, recorder);
  ASSERT_TRUE(original.solved);
  write_meta(spec, schedule, ProbeStatus::kSolved);
  EXPECT_FALSE(schedule.meta.contains("tree_order"));

  schedule.meta["tree_order"] = "veb";
  const FaultSchedule reloaded =
      schedule_from_jsonl(schedule_to_jsonl(schedule));
  const ProbeResult r = probe(spec_from_meta(reloaded), reloaded);
  EXPECT_EQ(r.status, ProbeStatus::kSolved);
  EXPECT_EQ(r.tally, original.run.tally);
}

// --- Violations: recording and context enrichment ---------------------------

TEST(ViolationContext, RecordedScheduleKeepsTheOffendingDecision) {
  // Restarting a live processor is illegal; the recorder must capture the
  // bad decision even though the engine rejects it.
  LambdaAdversary inner([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 3) d.restart.push_back(0);
    return d;
  });
  FaultSchedule schedule;
  RecordingAdversary recorder(inner, schedule);
  try {
    run_writeall(WriteAllAlgo::kX, {.n = 32, .p = 4}, recorder);
    FAIL() << "expected AdversaryViolation";
  } catch (const AdversaryViolation& av) {
    EXPECT_EQ(av.context.slot, 3);
    EXPECT_EQ(av.context.pid, 0);
    EXPECT_EQ(av.context.move, "restart");
    EXPECT_NE(std::string(av.what()).find("slot 3"), std::string::npos);
  }
  ASSERT_FALSE(schedule.entries.empty());
  EXPECT_EQ(schedule.entries.back().slot, 3u);
  EXPECT_EQ(schedule.entries.back().decision.restart, std::vector<Pid>{0});
}

TEST(ViolationContext, ProbeClassifiesViolations) {
  FaultSchedule bad;
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 32, .p = 4};
  write_meta(spec, bad, ProbeStatus::kAdversaryViolation, "");
  ScheduleEntry e;
  e.slot = 2;
  e.decision.restart.push_back(1);  // pid 1 is live -> illegal restart
  bad.entries.push_back(e);

  const ProbeResult r = probe(spec_from_meta(bad), bad);
  EXPECT_EQ(r.status, ProbeStatus::kAdversaryViolation);
  EXPECT_EQ(r.context.slot, 2);
  EXPECT_EQ(r.context.pid, 1);
  EXPECT_EQ(r.context.move, "restart");
  EXPECT_FALSE(r.message.empty());
}

TEST(ViolationContext, ProbeSolvesBenignSchedules) {
  FaultSchedule benign;
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 32, .p = 4};
  write_meta(spec, benign, ProbeStatus::kSolved, "");
  ScheduleEntry e;
  e.slot = 1;
  e.decision.fail_after_cycle.push_back(2);
  benign.entries.push_back(e);

  const ProbeResult r = probe(spec_from_meta(benign), benign);
  EXPECT_EQ(r.status, ProbeStatus::kSolved);
  EXPECT_GT(r.tally.completed_work, 0u);
  EXPECT_EQ(r.tally.failures, 1u);
}

// --- Regression corpus ------------------------------------------------------

// Every archived reproducer under tests/corpus/ must still replay to the
// status its meta promises. New entries come from chaos_test auto-records
// (shrunk via writeall_cli --shrink-out) — vet, then check in.
TEST(Corpus, ArchivedReproducersReplayToTheirRecordedStatus) {
  const std::filesystem::path dir = RFSP_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".jsonl") continue;
    SCOPED_TRACE(file.path().filename().string());
    const FaultSchedule schedule = load_schedule(file.path().string());
    const ProbeStatus expected =
        probe_status_from_string(schedule.meta.at("status"));
    const ProbeResult r = probe(spec_from_meta(schedule), schedule);
    EXPECT_EQ(r.status, expected)
        << "message: " << r.message
        << " (expected " << to_string(expected) << ")";
    ++replayed;
  }
  EXPECT_GE(replayed, 3u) << "the seeded corpus went missing";
}

}  // namespace
}  // namespace rfsp
