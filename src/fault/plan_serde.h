// Text serialization for FaultPlan — the chaos-search corpus substrate.
//
// A serialized plan is a line-oriented UTF-8 document: a `# mittos fault
// plan v1` header, then one `episode` line per episode in plan (sorted)
// order. Round-trips are exact: severities are printed with enough digits
// (%.17g) that parse(print(plan)) == plan bit-for-bit, which is what lets a
// checked-in reproducer file replay the same simulation byte-identically
// years later.
//
//   # mittos fault plan v1
//   episode kind=network_drop node=0 start=120000000 dur=40000000 severity=0.85 chip=-1
//
// Unknown keys, malformed lines, a severity outside its kind's
// SeverityRangeOf (NaN included) and a duration <= 0 are hard errors (a
// corpus file that half-parses is worse than one that fails loudly); blank
// lines and `#` comments are skipped.

#ifndef MITTOS_FAULT_PLAN_SERDE_H_
#define MITTOS_FAULT_PLAN_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/fault_plan.h"

namespace mitt::fault {

// The line-format primitives the plan and chaos-corpus readers share.
// Splits `line` into space/tab-separated tokens.
std::vector<std::string_view> Tokens(std::string_view line);
// Parses a whole token as a base-10 integer. False (out untouched) on an
// empty token, leading whitespace, trailing junk, or a value outside the
// type's range; ParseU64 also rejects a sign.
bool ParseI64(std::string_view s, int64_t* out);
bool ParseU64(std::string_view s, uint64_t* out);

// Reverse of FaultKindName. Returns false (out untouched) on unknown names.
bool FaultKindFromName(std::string_view name, FaultKind* out);

// One `episode ...` line (no trailing newline) / its exact inverse.
std::string EpisodeToLine(const FaultEpisode& episode);
bool EpisodeFromLine(std::string_view line, FaultEpisode* out, std::string* error);

std::string FaultPlanToText(const FaultPlan& plan);
// Parses a full document. On failure returns false and sets *error to a
// message naming the offending line.
bool FaultPlanFromText(std::string_view text, FaultPlan* out, std::string* error);

}  // namespace mitt::fault

#endif  // MITTOS_FAULT_PLAN_SERDE_H_
