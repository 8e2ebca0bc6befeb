// Figure 5 (§7.2): MITTCFQ with EC2 noise on a 20-node MongoDB-like cluster.
//
//   (a) latency CDF of YCSB get()s under Base / AppTO / Clone / Hedged /
//       MittCFQ with the EC2 disk-noise replay;
//   (b) % latency reduction of MittCFQ vs each technique at avg/p75/p90/
//       p95/p99.
//
// Expected shape (paper): Base > AppTO > Clone > Hedged > MittCFQ above p95;
// Clone worse than Base below ~p93 (self-inflicted load); MittCFQ cuts
// Hedged by ~20-30% at p95.

#include <cstdio>

#include "src/harness/experiment.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;

  harness::ExperimentOptions opt;
  opt.num_nodes = 20;
  opt.num_clients = 20;
  opt.measure_requests = 8000;
  opt.warmup_requests = 400;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.access = kv::AccessPath::kRead;
  opt.noise = harness::NoiseKind::kEc2;
  opt.ec2 = harness::CompressedEc2Noise();
  opt.seed = 20170101;

  harness::SloBase slo = harness::RunSloBase(opt);
  harness::Experiment experiment(harness::WithSlo(opt, slo.slo));
  std::vector<harness::RunResult> results;
  results.push_back(std::move(slo.base));
  for (const StrategyKind kind : {StrategyKind::kAppTimeout, StrategyKind::kClone,
                                  StrategyKind::kHedged, StrategyKind::kMittos}) {
    results.push_back(experiment.Run(kind));
  }

  std::printf("=== Figure 5: MittCFQ with EC2 noise (20-node MongoDB-like cluster) ===\n");
  std::printf("deadline / timeout / hedge delay = Base p95 = %.2f ms\n\n", ToMillis(slo.slo));

  std::printf("--- Fig 5a: get() latency percentiles (CDF view) ---\n");
  harness::PrintPercentileTable(results, {50, 75, 90, 93, 95, 97, 99, 99.9},
                                /*user_level=*/false);

  std::printf("\n--- Fig 5b: %% latency reduction of MittCFQ ---\n");
  harness::PrintReductionTable(results.back(), {results[3], results[2], results[1]},
                               {75, 90, 95, 99}, /*user_level=*/false);

  std::printf("\nMittOS EBUSY failovers: %lu of %lu requests; Hedged hedges: %lu\n",
              static_cast<unsigned long>(results[4].ebusy_failovers),
              static_cast<unsigned long>(results[4].requests),
              static_cast<unsigned long>(results[3].hedges_sent));
  return 0;
}
