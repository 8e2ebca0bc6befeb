// Coverage-guided chaos search (the PR's tentpole, DESIGN.md §4j).
//
// The explorer maintains a corpus of "interesting" FaultPlans. Each round it
// picks a parent (or two) from the corpus, derives a child — fresh
// GenerateChaosPlan draw, structural mutation, or cross-plan splice — runs
// one chaos trial, and:
//
//   * checks every invariant oracle; a violation with a not-yet-seen oracle
//     name is shrunk (ShrinkPlan) into a Finding carrying both the original
//     and the minimized plan;
//   * computes the trial's behavior-coverage features; a child contributing
//     novel features enters the corpus (optionally after a worker-grid
//     determinism check — the scorecard must be byte-identical at
//     {trial 1,4} x {intra 1,2}, or the finding IS the engine).
//
// Determinism: the mutation stream is seeded and corpus picks come from the
// same Rng, so a search with time_budget_ms == 0 is fully reproducible;
// wall-clock budgets (CI) trade that for boundedness.

#ifndef MITTOS_CHAOS_EXPLORER_H_
#define MITTOS_CHAOS_EXPLORER_H_

#include <string>
#include <vector>

#include "src/chaos/coverage.h"
#include "src/chaos/world.h"
#include "src/fault/fault_plan.h"

namespace mitt::chaos {

struct ExplorerOptions {
  ChaosWorldOptions world;
  int max_trials = 150;
  uint64_t seed = 1;
  int max_findings = 3;  // Stop after this many distinct-oracle findings.
  // Wall-clock bound in milliseconds; 0 = none (fully deterministic search).
  int64_t time_budget_ms = 0;
  // Worker knobs for trial execution (wall clock only, never results).
  int trial_workers = 1;
  int intra_workers = 1;
};

struct Finding {
  std::string oracle;
  std::string strategy;
  std::string detail;
  fault::FaultPlan plan;     // The child that first tripped the oracle.
  fault::FaultPlan shrunk;   // The minimized reproducer.
  int found_at_trial = 0;
  int shrink_trials = 0;
};

struct SearchReport {
  int trials = 0;            // Search trials (excludes shrink re-runs).
  int shrink_trials = 0;
  size_t corpus_size = 0;
  size_t coverage_features = 0;
  int grid_checks = 0;
  bool hit_time_budget = false;
  std::vector<Finding> findings;

  // Machine-readable summary (coverage + violations) for the CI artifact.
  std::string ToJson() const;
};

SearchReport RunSearch(const ExplorerOptions& options);

}  // namespace mitt::chaos

#endif  // MITTOS_CHAOS_EXPLORER_H_
