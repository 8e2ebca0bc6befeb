#include "src/chaos/world.h"

#include "src/chaos/oracles.h"

namespace mitt::chaos {
namespace {

// One trial per strategy, identical seeds and plan.
std::vector<harness::Trial> MakeTrials(const ChaosWorldOptions& world,
                                       const fault::FaultPlan& plan, int intra_workers) {
  std::vector<harness::Trial> trials;
  trials.reserve(world.strategies.size());
  for (const harness::StrategyKind kind : world.strategies) {
    harness::Trial t;
    t.options = MakeExperimentOptions(world, plan);
    t.options.intra_workers = intra_workers;
    t.kind = kind;
    trials.push_back(t);
  }
  return trials;
}

// Checks every post-run oracle and fingerprints the trial's results.
TrialOutcome Judge(const ChaosWorldOptions& world, std::vector<harness::RunResult> results) {
  TrialOutcome outcome;
  outcome.results = std::move(results);
  for (size_t i = 0; i < outcome.results.size(); ++i) {
    const bool resilient = world.strategies[i] == harness::StrategyKind::kMittosResilient;
    CheckOracles(outcome.results[i], resilient, world.tenants, &outcome.violations);
    outcome.fingerprint += harness::Fingerprint(outcome.results[i]);
    outcome.fingerprint += '\n';
  }
  return outcome;
}

}  // namespace

harness::ExperimentOptions MakeExperimentOptions(const ChaosWorldOptions& world,
                                                 const fault::FaultPlan& plan) {
  harness::ExperimentOptions opt;
  opt.num_nodes = world.num_nodes;
  opt.num_clients = world.num_clients;
  opt.measure_requests = world.requests;
  opt.warmup_requests = world.warmup;
  opt.pin_primary_node = 0;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.num_keys_per_node = 1 << 14;  // Small keyspace: chaos trials must be cheap.
  opt.deadline = world.deadline;
  // Light contention on the pinned primary keeps the device queue non-empty
  // (EBUSY paths reachable) without drowning the injected faults.
  opt.noise = harness::NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.noise_io_size = 4096;
  opt.noise_priority = 7;
  opt.noise_horizon = world.horizon;
  opt.fault_plan = plan;
  opt.num_shards = world.num_shards;
  opt.seed = world.seed;
  opt.harvest_oracles = true;

  // A tight retry budget + fast-tripping breakers: drop storms then exercise
  // the timer -> denied-retry -> late-reply path within a ~700 ms horizon,
  // which is exactly where the planted liveness bug lives.
  opt.resilience.retry.burst = 1.5;
  opt.resilience.retry.initial = 1.5;
  opt.resilience.retry.refill_per_success = 0.05;
  opt.resilience.health.min_samples = 4;
  opt.resilience.health.open_base = Millis(20);
  opt.resilience.test_swallow_late_reply = world.inject_bug;

  if (world.tenants) {
    opt.tenants.enabled = true;
    opt.tenants.mix.num_tenants = 48;
    opt.tenants.mix.total_rate_hz = 3000;
    opt.tenants.slo_aware = true;
    opt.tenants.warmup = Millis(60);
    opt.tenants.duration = world.horizon - Millis(60);
    opt.tenants.controller.period = Millis(100);
  }
  return opt;
}

TrialOutcome RunChaosTrial(const ChaosWorldOptions& world, const fault::FaultPlan& plan,
                           int trial_workers, int intra_workers) {
  return Judge(world, harness::RunTrialsParallel(MakeTrials(world, plan, intra_workers),
                                                 trial_workers));
}

TrialOutcome RunChaosTrialOnGrid(const ChaosWorldOptions& world, const fault::FaultPlan& plan,
                                 std::vector<std::string>* drift) {
  harness::GridRun grid = harness::RunOnWorkerGrid(MakeTrials(world, plan, 1));
  *drift = std::move(grid.drift);
  return Judge(world, std::move(grid.results));
}

}  // namespace mitt::chaos
