// Figure 11 (§7.8.1): MittCFQ colocated with filebench macrobenchmarks
// (fileserver / varmail / webserver on different nodes) and Hadoop FB2010
// batch jobs. Expected: Base shows a long heavy tail (~15% of IOs slow),
// Hedged shortens it, MittCFQ is more effective overall — but above ~p99
// Hedged can win (third-retry-with-disabled-deadline lands on busy nodes).

#include <cstdio>

#include "src/harness/experiment.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;

  harness::ExperimentOptions opt;
  opt.num_nodes = 20;
  opt.num_clients = 20;
  opt.measure_requests = 6000;
  opt.warmup_requests = 300;
  opt.noise = harness::NoiseKind::kMacroMix;
  opt.deadline = -1;
  opt.seed = 20170107;

  std::printf("=== Figure 11: MittCFQ with macrobenchmark + Hadoop noise ===\n");
  harness::SloBase slo = harness::RunSloBase(opt);
  harness::Experiment experiment(harness::WithSlo(opt, slo.slo));
  std::vector<harness::RunResult> results;
  results.push_back(std::move(slo.base));
  for (const StrategyKind kind :
       {StrategyKind::kHedged, StrategyKind::kMittos, StrategyKind::kMittosWait}) {
    results.push_back(experiment.Run(kind));
  }
  std::printf("deadline / hedge delay = Base p95 = %.2f ms\n\n", ToMillis(slo.slo));

  std::printf("--- Fig 11a: get() latency percentiles ---\n");
  harness::PrintPercentileTable(results, {20, 50, 75, 85, 90, 95, 99, 99.9},
                                /*user_level=*/false);

  std::printf("\n--- Fig 11b: %% latency reduction of MittCFQ vs Hedged per percentile ---\n");
  harness::PrintReductionTable(results[2], {results[1]}, {40, 60, 80, 90, 95, 99, 99.9},
                               /*user_level=*/false);

  std::printf(
      "\n--- §7.8.1 extension: EBUSY-with-wait-time (informed last try) ---\n"
      "The plain MittOS 3rd try disables the deadline blindly; with wait hints the\n"
      "last try goes to the least-busy replica, recovering the >p99 range:\n");
  harness::PrintReductionTable(results[3], {results[1]}, {90, 95, 99, 99.9},
                               /*user_level=*/false);
  return 0;
}
