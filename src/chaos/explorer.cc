#include "src/chaos/explorer.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/chaos/mutator.h"
#include "src/chaos/shrinker.h"
#include "src/obs/export.h"

namespace mitt::chaos {
namespace {

constexpr int kInitialSeeds = 3;   // GenerateChaosPlan-derived corpus seeds.
constexpr int kShrinkBudget = 80;  // Trial budget per finding's shrink.
constexpr size_t kMaxCorpus = 64;
// Every kGridCheckEvery-th novel corpus entrant is re-run at (trial=4,
// intra=2) and its fingerprint compared against the (1,1) run: the
// determinism oracle.
constexpr int kGridCheckEvery = 4;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string SearchReport::ToJson() const {
  std::string j = "{\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"trials\": %d,\n  \"shrink_trials\": %d,\n  \"corpus_size\": %zu,\n"
                "  \"coverage_features\": %zu,\n  \"grid_checks\": %d,\n"
                "  \"hit_time_budget\": %s,\n",
                trials, shrink_trials, corpus_size, coverage_features, grid_checks,
                hit_time_budget ? "true" : "false");
  j += buf;
  j += "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"oracle\": \"" + obs::JsonEscape(f.oracle) + "\", \"strategy\": \"" +
         obs::JsonEscape(f.strategy) + "\", \"detail\": \"" + obs::JsonEscape(f.detail) + "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"found_at_trial\": %d, \"shrink_trials\": %d, \"plan_episodes\": %zu, "
                  "\"shrunk_episodes\": %zu}",
                  f.found_at_trial, f.shrink_trials, f.plan.size(), f.shrunk.size());
    j += buf;
  }
  j += findings.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

SearchReport RunSearch(const ExplorerOptions& options) {
  SearchReport report;
  CoverageMap coverage;
  std::vector<fault::FaultPlan> corpus;
  Rng rng(options.seed);

  MutatorOptions mopt;
  mopt.num_nodes = options.world.num_nodes;
  mopt.horizon = options.world.horizon;
  PlanMutator mutator(mopt, options.seed ^ 0xC4A0'5EEDULL);

  const int64_t deadline_ms =
      options.time_budget_ms > 0 ? NowMs() + options.time_budget_ms : 0;
  auto out_of_time = [&] {
    return deadline_ms != 0 && NowMs() >= deadline_ms;
  };

  // One trial: run, check, harvest coverage, maybe shrink, maybe admit.
  auto run_one = [&](const fault::FaultPlan& plan) {
    ++report.trials;
    const TrialOutcome outcome =
        RunChaosTrial(options.world, plan, options.trial_workers, options.intra_workers);

    for (const Violation& v : outcome.violations) {
      bool seen = false;
      for (const Finding& f : report.findings) {
        if (f.oracle == v.oracle) {
          seen = true;
          break;
        }
      }
      if (seen || static_cast<int>(report.findings.size()) >= options.max_findings) {
        continue;
      }
      Finding f;
      f.oracle = v.oracle;
      f.strategy = v.strategy;
      f.detail = v.detail;
      f.plan = plan;
      f.found_at_trial = report.trials;
      ShrinkOptions sopt;
      sopt.max_trials = kShrinkBudget;
      sopt.trial_workers = options.trial_workers;
      sopt.intra_workers = options.intra_workers;
      const ShrinkResult shrunk = ShrinkPlan(options.world, plan, v.oracle, sopt);
      f.shrunk = shrunk.reproduced ? shrunk.plan : plan;
      f.shrink_trials = shrunk.trials_used;
      report.shrink_trials += shrunk.trials_used;
      report.findings.push_back(std::move(f));
    }

    const std::vector<Feature> features = CollectFeatures(plan, outcome.results);
    if (coverage.AddAll(features) > 0 && corpus.size() < kMaxCorpus) {
      // Novel behavior: candidate corpus entrant. The grid determinism
      // oracle re-runs every Nth entrant at the far corner of the worker
      // grid — same world, same plan, so any fingerprint drift is an engine
      // or merge-order bug, reported like any other oracle.
      bool admit = true;
      if (static_cast<int>(corpus.size()) % kGridCheckEvery == 0) {
        ++report.grid_checks;
        const TrialOutcome far = RunChaosTrial(options.world, plan, /*trial_workers=*/4,
                                               /*intra_workers=*/2);
        if (far.fingerprint != outcome.fingerprint &&
            static_cast<int>(report.findings.size()) < options.max_findings) {
          Finding f;
          f.oracle = "determinism";
          f.strategy = "grid";
          f.detail = "fingerprint differs between (trial=" +
                     std::to_string(options.trial_workers) + ",intra=" +
                     std::to_string(options.intra_workers) + ") and (4,2)";
          f.plan = plan;
          f.shrunk = plan;  // A nondeterministic trial cannot be ddmin-shrunk.
          f.found_at_trial = report.trials;
          report.findings.push_back(std::move(f));
          admit = false;
        }
      }
      if (admit) {
        corpus.push_back(plan);
      }
    }
  };

  // --- Seed round: the empty plan plus a few GenerateChaosPlan mixes ---
  run_one(fault::FaultPlan());
  for (int i = 0; i < kInitialSeeds && report.trials < options.max_trials; ++i) {
    if (out_of_time() || static_cast<int>(report.findings.size()) >= options.max_findings) {
      break;
    }
    run_one(mutator.RandomPlan());
  }

  // --- Mutation loop ---
  while (report.trials < options.max_trials &&
         static_cast<int>(report.findings.size()) < options.max_findings) {
    if (out_of_time()) {
      report.hit_time_budget = true;
      break;
    }
    fault::FaultPlan child;
    if (corpus.empty()) {
      child = mutator.RandomPlan();
    } else {
      const double draw = rng.NextDouble();
      if (draw < 0.15) {
        child = mutator.RandomPlan();
      } else if (draw < 0.30 && corpus.size() >= 2) {
        const size_t a = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1));
        const size_t b = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1));
        child = mutator.Splice(corpus[a], corpus[b]);
      } else {
        const size_t p = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1));
        child = mutator.Mutate(corpus[p]);
      }
    }
    run_one(child);
  }

  report.corpus_size = corpus.size();
  report.coverage_features = coverage.size();
  return report;
}

}  // namespace mitt::chaos
