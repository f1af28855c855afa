// Reproducers: run a fault schedule against the Write-All configuration
// described in its own meta map and classify the outcome
// (docs/resilience.md §2).
//
// The meta keys "algo", "n", "p" (plus optional "seed", "max_slots",
// "adversary", "note") make a schedule file a complete, self-describing
// reproducer: `probe(spec_from_meta(s), s)` re-runs it anywhere. The
// shrinker minimizes against "same ProbeStatus", and the corpus regression
// test replays every archived schedule expecting its recorded status.
#pragma once

#include <string>

#include "accounting/tally.hpp"
#include "replay/schedule.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace rfsp {

// Outcome classes of a replayed run, ordered from benign to broken.
enum class ProbeStatus {
  kSolved,              // goal met, postcondition holds
  kUnsolved,            // ran to termination/limit without solving
  kModelViolation,      // the algorithm broke the PRAM model
  kAdversaryViolation,  // the schedule broke the failure model
  kCheckFailure,        // an internal invariant (RFSP_CHECK) tripped
};

std::string_view to_string(ProbeStatus status);
ProbeStatus probe_status_from_string(std::string_view text);  // ConfigError

struct ProbeResult {
  ProbeStatus status = ProbeStatus::kSolved;
  std::string message;       // what() of the violation, empty otherwise
  ViolationContext context;  // populated for Model/Adversary violations
  WorkTally tally;           // valid for kSolved / kUnsolved only
};

// What to run a schedule against. Mirrored into/out of FaultSchedule::meta.
struct ReproSpec {
  WriteAllAlgo algo = WriteAllAlgo::kX;
  Addr n = 0;
  Pid p = 0;
  std::uint64_t seed = 0;   // randomized algorithms (ACC)
  Slot max_slots = Slot{1} << 20;
  bool bit_atomic_writes = false;  // required to replay torn-write moves
  // Memory model the run used (pram/faults.hpp, docs/fault-models.md).
  // This is semantic: replaying a faulty-cells or persistent-cache schedule under the wrong model either
  // rejects its moves (AdversaryViolation) or changes the outcome, so the
  // meta keys below make the reproducer carry its model with it.
  MemoryModel memory_model = MemoryModel::kReliable;
  FaultyCellsOptions faulty_cells;          // meaningful under kFaultyCells
  PersistentCacheOptions persistent_cache;  // under kPersistentCache
};

// Meta round-trip. spec_from_meta throws ConfigError when "algo"/"n"/"p"
// are missing or malformed and ignores keys it does not know (a
// "tree_order" key included: the tree order is model-invisible, so such a
// schedule replays to the same tally); write_meta also records `status` (the expected
// replay outcome) and an optional free-text note.
ReproSpec spec_from_meta(const FaultSchedule& schedule);
void write_meta(ReproSpec spec, FaultSchedule& schedule,
                ProbeStatus expected, const std::string& note = "");

// Replay `schedule` against `spec` and classify. Never throws on the
// failure classes it reports — they come back as ProbeResult.
ProbeResult probe(const ReproSpec& spec, const FaultSchedule& schedule);

}  // namespace rfsp
