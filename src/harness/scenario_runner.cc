#include "src/harness/scenario_runner.h"

#include <sstream>
#include <utility>

#include "src/common/table.h"
#include "src/obs/export.h"

namespace mitt::harness {
namespace {

StrategyScore ScoreOf(const RunResult& r, const std::string& scenario,
                      const std::string& strategy, DurationNs slo) {
  StrategyScore score;
  score.scenario = scenario;
  score.strategy = strategy;
  score.p50_ms = ToMillis(r.get_latencies.Percentile(50));
  score.p95_ms = ToMillis(r.get_latencies.Percentile(95));
  score.p99_ms = ToMillis(r.get_latencies.Percentile(99));
  score.deadline_miss_pct = 100.0 * (1.0 - r.get_latencies.FractionBelow(slo));
  score.failovers = r.ebusy_failovers + r.hedges_sent + r.timeouts_fired;
  score.fault_episodes = r.fault_episodes;
  score.user_errors = r.user_errors;
  score.degraded_gets = r.degraded_gets;
  score.degraded_sheds = r.degraded_sheds;
  score.deadline_exhausted = r.deadline_exhausted;
  score.unbounded_tries = r.unbounded_deadline_tries;
  score.max_sent_deadline_ms = ToMillis(r.max_sent_deadline);
  return score;
}

}  // namespace

std::vector<StrategyScore> ScenarioRunner::Run(const std::vector<FaultScenario>& scenarios,
                                               std::vector<std::string>* grid_drift) {
  // Phase A: healthy world, Base strategy -> the SLO every scenario is
  // judged against. Faults must not leak into the calibration run.
  ExperimentOptions healthy = options_.base;
  healthy.fault_plan = fault::FaultPlan();
  slo_deadline_ = RunSloBase(healthy).slo;

  // Phase B: scenario x strategy, fresh identical-seed worlds, fanned out
  // across the deterministic trial runner.
  std::vector<Trial> trials;
  trials.reserve(scenarios.size() * options_.strategies.size());
  for (const FaultScenario& scenario : scenarios) {
    for (const StrategyKind kind : options_.strategies) {
      Trial t;
      t.options = options_.base;
      t.options.fault_plan = scenario.plan;
      if (scenario.customize) {
        scenario.customize(t.options);
      }
      t.options = WithSlo(std::move(t.options), slo_deadline_);
      t.kind = kind;
      t.rename = scenario.name + "/" + std::string(StrategyKindName(kind));
      trials.push_back(std::move(t));
    }
  }
  if (grid_drift != nullptr) {
    GridRun grid = RunOnWorkerGrid(std::move(trials));
    results_ = std::move(grid.results);
    *grid_drift = std::move(grid.drift);
  } else {
    results_ = RunTrialsParallel(trials, options_.workers);
  }

  std::vector<StrategyScore> scores;
  scores.reserve(results_.size());
  size_t i = 0;
  for (const FaultScenario& scenario : scenarios) {
    for (const StrategyKind kind : options_.strategies) {
      scores.push_back(ScoreOf(results_[i++], scenario.name,
                               std::string(StrategyKindName(kind)), slo_deadline_));
    }
  }
  return scores;
}

void PrintScorecard(const std::vector<StrategyScore>& scores, DurationNs slo_deadline) {
  Table table({"scenario", "strategy", "p50 (ms)", "p95 (ms)", "p99 (ms)",
               "miss% @" + Table::Num(ToMillis(slo_deadline), 1) + "ms", "failovers",
               "episodes", "errors", "degraded", "sheds", "exhausted", "unbounded",
               "maxDL (ms)"});
  for (const StrategyScore& s : scores) {
    table.AddRow({s.scenario, s.strategy, Table::Num(s.p50_ms, 2), Table::Num(s.p95_ms, 2),
                  Table::Num(s.p99_ms, 2), Table::Num(s.deadline_miss_pct, 2),
                  Table::Num(static_cast<double>(s.failovers), 0),
                  Table::Num(static_cast<double>(s.fault_episodes), 0),
                  Table::Num(static_cast<double>(s.user_errors), 0),
                  Table::Num(static_cast<double>(s.degraded_gets), 0),
                  Table::Num(static_cast<double>(s.degraded_sheds), 0),
                  Table::Num(static_cast<double>(s.deadline_exhausted), 0),
                  Table::Num(static_cast<double>(s.unbounded_tries), 0),
                  Table::Num(s.max_sent_deadline_ms, 2)});
  }
  table.Print();
}

std::string ScorecardJson(const std::vector<StrategyScore>& scores, DurationNs slo_deadline) {
  std::ostringstream out;
  out << "{\n  \"slo_deadline_ms\": " << ToMillis(slo_deadline) << ",\n  \"scores\": [\n";
  for (size_t i = 0; i < scores.size(); ++i) {
    const StrategyScore& s = scores[i];
    out << "    {\"scenario\": \"" << obs::JsonEscape(s.scenario) << "\", \"strategy\": \""
        << obs::JsonEscape(s.strategy) << "\", \"p50_ms\": " << s.p50_ms
        << ", \"p95_ms\": " << s.p95_ms << ", \"p99_ms\": " << s.p99_ms
        << ", \"deadline_miss_pct\": " << s.deadline_miss_pct
        << ", \"failovers\": " << s.failovers << ", \"fault_episodes\": " << s.fault_episodes
        << ", \"user_errors\": " << s.user_errors << ", \"degraded_gets\": " << s.degraded_gets
        << ", \"degraded_sheds\": " << s.degraded_sheds
        << ", \"deadline_exhausted\": " << s.deadline_exhausted
        << ", \"unbounded_tries\": " << s.unbounded_tries
        << ", \"max_sent_deadline_ms\": " << s.max_sent_deadline_ms << "}"
        << (i + 1 < scores.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace mitt::harness
