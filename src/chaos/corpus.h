// Chaos corpus files: self-contained, replayable (world, plan, expectation)
// records — the checked-in reproducers `chaos_tool replay` re-executes.
//
//   # mittos chaos corpus v1
//   # <free-form note lines>
//   world nodes=3 clients=4 requests=360 warmup=40 deadline=12000000 ...
//         ... horizon=700000000 shards=2 seed=42 bug=1 tenants=0   (one line)
//   expect completion
//   episode kind=network_drop node=0 start=...
//
// `expect <oracle>` lines (0+) name the oracle(s) the plan is known to trip:
// replay fails when an expected oracle does NOT fire (the regression healed
// or the reproducer rotted) and when an UNexpected oracle fires. A file with
// no expect lines asserts the plan is violation-free — the benign-corpus
// regression mode. The same exact-round-trip rules as plan_serde apply, and
// the reader rejects, naming the line, a whitespace-only line and any world
// value its field cannot hold: nodes and shards below 1, a negative count,
// deadline or horizon, bug or tenants other than 0/1, a seed outside
// uint64, an int field past int.

#ifndef MITTOS_CHAOS_CORPUS_H_
#define MITTOS_CHAOS_CORPUS_H_

#include <string>
#include <vector>

#include "src/chaos/world.h"
#include "src/fault/fault_plan.h"

namespace mitt::chaos {

struct CorpusEntry {
  ChaosWorldOptions world;
  fault::FaultPlan plan;
  std::vector<std::string> expect;  // Oracle names expected to fire.
  std::string note;                 // Free-form provenance (one line).
};

std::string CorpusEntryToText(const CorpusEntry& entry);
bool CorpusEntryFromText(std::string_view text, CorpusEntry* out, std::string* error);

// File wrappers over the text forms. Load fails loudly on malformed files.
bool SaveCorpusEntry(const std::string& path, const CorpusEntry& entry, std::string* error);
bool LoadCorpusEntry(const std::string& path, CorpusEntry* out, std::string* error);

}  // namespace mitt::chaos

#endif  // MITTOS_CHAOS_CORPUS_H_
