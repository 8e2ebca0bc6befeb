// Structural FaultPlan mutations for the chaos explorer.
//
// The explorer's children come from three generators:
//   * RandomPlan()  — a fresh GenerateChaosPlan draw with randomized kind
//                     toggles and a randomized sub-seed (global exploration);
//   * Mutate(p)     — 1..3 structural edits of a corpus parent: drop, split,
//                     merge, shift, stretch/shrink, intensify/weaken,
//                     retarget, add (local exploration);
//   * Splice(a, b)  — a's episodes for one kind swapped against b's (crosses
//                     two interesting schedules).
//
// Every generated plan is canonicalized: sorted into plan order, severities
// clamped to the kind's legal range, and same-target overlapping episodes
// dropped (keep-first) so the injector's last-write-wins overlap semantics
// never silently distort a child; the fuzzer does not explore overlapping
// same-target episodes. All randomness comes from the mutator's own seeded
// Rng: same seed, same parent, same children.

#ifndef MITTOS_CHAOS_MUTATOR_H_
#define MITTOS_CHAOS_MUTATOR_H_

#include "src/common/rng.h"
#include "src/fault/fault_plan.h"

namespace mitt::chaos {

// Children are truncated (keep-first) past kMaxPlanEpisodes, and no episode
// is shorter than kMinEpisodeDuration.
inline constexpr size_t kMaxPlanEpisodes = 24;
inline constexpr DurationNs kMinEpisodeDuration = Millis(5);

struct MutatorOptions {
  int num_nodes = 3;
  TimeNs horizon = Millis(700);
};

class PlanMutator {
 public:
  PlanMutator(const MutatorOptions& options, uint64_t seed);

  fault::FaultPlan RandomPlan();
  fault::FaultPlan Mutate(const fault::FaultPlan& parent);
  fault::FaultPlan Splice(const fault::FaultPlan& a, const fault::FaultPlan& b);

  // Sort, clamp severities/durations into the kind's legal range, drop
  // same-target overlaps (keep-first) and truncate to kMaxPlanEpisodes. Public
  // because the shrinker reuses it after weakening episodes.
  fault::FaultPlan Canonicalize(std::vector<fault::FaultEpisode> episodes) const;

 private:
  fault::FaultEpisode RandomEpisode();
  fault::FaultKind RandomKind();

  MutatorOptions options_;
  Rng rng_;
  uint64_t next_sub_seed_ = 1;
};

}  // namespace mitt::chaos

#endif  // MITTOS_CHAOS_MUTATOR_H_
