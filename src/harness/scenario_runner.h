// ScenarioRunner: fault plans x client strategies -> SLO scorecard.
//
// The chaos-engineering question MittOS raises (§8, "fail-slow" related
// work): the predictors were profiled on a *healthy* device — do fast
// rejects still help when the hardware misbehaves underneath them? The
// runner answers it the way the paper answers Fig. 5:
//
//   Phase A: one healthy Base run derives the SLO deadline (RunSloBase,
//            the paper's "13ms" rule) so every scenario is judged against
//            the same healthy-world expectation.
//   Phase B: every (scenario, strategy) pair gets a fresh world with
//            identical seeds and the scenario's fault plan replayed exactly;
//            pairs fan out across the deterministic parallel trial runner,
//            so the scorecard is bit-identical at any MITT_TRIAL_WORKERS.
//
// The scorecard reports, per pair: p50/p95/p99, the deadline-miss fraction
// (CDF at the SLO), failovers (EBUSY + hedges + timeouts), and how many
// fault episodes actually landed.

#ifndef MITTOS_HARNESS_SCENARIO_RUNNER_H_
#define MITTOS_HARNESS_SCENARIO_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"

namespace mitt::harness {

struct FaultScenario {
  std::string name;
  fault::FaultPlan plan;
  // Optional per-scenario world tweak, applied after the base options and the
  // plan are installed (e.g. flip continuous_all_nodes for an all-busy world).
  std::function<void(ExperimentOptions&)> customize;
};

struct StrategyScore {
  std::string scenario;
  std::string strategy;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double deadline_miss_pct = 0;  // % of gets slower than the SLO deadline.
  uint64_t failovers = 0;        // EBUSY failovers + hedges sent + timeouts fired.
  uint64_t fault_episodes = 0;   // Episodes that landed during the run.
  uint64_t user_errors = 0;
  // Resilience columns (0 for strategies without the subsystem).
  uint64_t degraded_gets = 0;        // Gets that used the bounded degraded path.
  uint64_t degraded_sheds = 0;       // Admission-gate sheds the client saw.
  uint64_t deadline_exhausted = 0;   // Budgets that hit zero before an accept.
  uint64_t unbounded_tries = 0;      // Deadline-disabled sends (naive last try).
  // Largest deadline MittOS+res put on the wire; 0 for every other strategy,
  // whose disabled sends show up in `unbounded_tries` instead.
  double max_sent_deadline_ms = 0;
};

class ScenarioRunner {
 public:
  struct Options {
    // World/workload shared by every pair; its fault_plan field is ignored
    // (each scenario supplies its own).
    ExperimentOptions base;
    std::vector<StrategyKind> strategies = {StrategyKind::kBase, StrategyKind::kAppTimeout,
                                            StrategyKind::kHedged, StrategyKind::kMittos};
    int workers = 0;  // RunTrialsParallel worker count (0 = default).
  };

  explicit ScenarioRunner(Options options) : options_(std::move(options)) {}

  // Runs phase A + phase B; scores are in (scenario-major, strategy-minor)
  // input order. Raw RunResults (same order) stay available via results().
  // With `grid_drift`, phase B runs on the determinism grid
  // (RunOnWorkerGrid): scores and results are the (1, 1) runs', and
  // *grid_drift names the points whose fingerprints differ.
  std::vector<StrategyScore> Run(const std::vector<FaultScenario>& scenarios,
                                 std::vector<std::string>* grid_drift = nullptr);

  DurationNs slo_deadline() const { return slo_deadline_; }
  const std::vector<RunResult>& results() const { return results_; }

 private:
  Options options_;
  DurationNs slo_deadline_ = 0;
  std::vector<RunResult> results_;
};

// Paper-style table: one row per (scenario, strategy).
void PrintScorecard(const std::vector<StrategyScore>& scores, DurationNs slo_deadline);

// Machine-readable scorecard for BENCH_*.json artifacts.
std::string ScorecardJson(const std::vector<StrategyScore>& scores, DurationNs slo_deadline);

}  // namespace mitt::harness

#endif  // MITTOS_HARNESS_SCENARIO_RUNNER_H_
