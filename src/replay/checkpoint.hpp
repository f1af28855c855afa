// EngineCheckpoint persistence (docs/resilience.md §3).
//
// One checkpoint is one JSON document ("rfsp-checkpoint", version 1):
//
//   {"format":"rfsp-checkpoint","version":1,"slot":640,
//    "tally":{"completed":...,"attempted":...,"failures":...,"restarts":...,
//             "slots":...,"halted":...,"peak_live":...},
//    "memory":[...],            // shared memory, signed words
//    "status":[0,1,2,...],      // 0=live, 1=failed, 2=halted
//    "states":[[...],null,...], // per-pid private state; null unless live
//    "adversary":[...],         // opaque Adversary::save_state words
//    "caches":[{"u":2,"e":[[addr,value],...]},...],
//                               // per-pid write-back caches; only under the
//                               // persistent-cache memory model
//    "faults":[...],            // adversary-injected dead cells; only under
//                               // faulty-cells with injections
//    "meta":{"note":"..."}}     // optional saver-attached context; omitted
//                               // when empty (old documents parse as-is)
//
// The optional keys ("persists" in tally, "caches", "faults", "meta") are
// omitted when empty/zero, so reliable-model checkpoints stay byte-identical
// to the pre-fault-model format and old documents parse unchanged.
//
// The round-trip is exact (checkpoint_from_json(checkpoint_to_json(cp)) ==
// cp), which is what makes kill-and-resume bit-identical: the resumed
// engine sees precisely the state the dead one saved.
#pragma once

#include <string>

#include "pram/engine.hpp"

namespace rfsp {

std::string checkpoint_to_json(const EngineCheckpoint& cp);
EngineCheckpoint checkpoint_from_json(std::string_view text);  // ConfigError

// File I/O convenience (throws ConfigError on I/O failure).
void save_checkpoint(const EngineCheckpoint& cp, const std::string& path);
EngineCheckpoint load_checkpoint(const std::string& path);

// Throws ConfigError when cp.meta names a "tree_order" other than "heap":
// such a memory image was saved under the van Emde Boas tree layout, which
// stored the tree cells at other addresses and has been removed, so
// resuming it would misread every tree. Checkpoints without the key pass.
void require_heap_tree_order(const EngineCheckpoint& cp);

}  // namespace rfsp
