// Figure 10 (§7.7): tail sensitivity to prediction error. The same MittCFQ
// experiment as Fig. 5, but with injected false negatives (busy IOs let
// through) or false positives (good IOs rejected) at E in {20, 60, 100}%.
//
// Expected shape: false negatives only degrade toward Base (100% FN == no
// MittOS); small false-positive rates barely matter, but 100% FP rejects
// everything and is far worse than Base (failover storms).

#include <cstdio>

#include "src/harness/experiment.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;

  harness::ExperimentOptions base_opt;
  base_opt.num_nodes = 20;
  base_opt.num_clients = 20;
  base_opt.measure_requests = 5000;
  base_opt.warmup_requests = 300;
  base_opt.noise = harness::NoiseKind::kEc2;
  base_opt.ec2 = harness::CompressedEc2Noise();
  base_opt.deadline = -1;
  base_opt.seed = 20170106;

  std::printf("=== Figure 10: tail sensitivity to prediction error (MittCFQ) ===\n");
  const harness::SloBase slo = harness::RunSloBase(base_opt);
  base_opt.deadline = slo.slo;
  std::printf("deadline = Base p95 = %.2f ms\n", ToMillis(slo.slo));

  auto run_with_error = [&](double fn_rate, double fp_rate, const char* label) {
    harness::ExperimentOptions opt = base_opt;
    opt.predictor.false_negative_rate = fn_rate;
    opt.predictor.false_positive_rate = fp_rate;
    harness::Experiment experiment(opt);
    auto result = experiment.Run(StrategyKind::kMittos);
    result.name = label;
    return result;
  };

  // Both tables share the error-free MittOS run and the Base column.
  const harness::RunResult no_error = run_with_error(0.0, 0.0, "NoError");

  std::printf("\n--- Fig 10a: false-negative injection ---\n");
  {
    std::vector<harness::RunResult> results;
    results.push_back(no_error);
    results.push_back(run_with_error(0.2, 0.0, "FN=20%"));
    results.push_back(run_with_error(0.6, 0.0, "FN=60%"));
    results.push_back(run_with_error(1.0, 0.0, "FN=100%"));
    results.push_back(slo.base);
    harness::PrintPercentileTable(results, {90, 92, 94, 96, 98, 99}, /*user_level=*/false);
  }

  std::printf("\n--- Fig 10b: false-positive injection ---\n");
  {
    std::vector<harness::RunResult> results;
    results.push_back(no_error);
    results.push_back(run_with_error(0.0, 0.2, "FP=20%"));
    results.push_back(run_with_error(0.0, 0.6, "FP=60%"));
    results.push_back(run_with_error(0.0, 1.0, "FP=100%"));
    results.push_back(slo.base);
    harness::PrintPercentileTable(results, {50, 75, 90, 92, 94, 96, 98, 99},
                                  /*user_level=*/false);
  }
  return 0;
}
