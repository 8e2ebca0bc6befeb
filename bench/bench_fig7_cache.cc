// Figure 7 (§7.4): MittCache vs Hedged with EC2-style cache contention on 20
// nodes. All data starts in memory; episodic evictions (the EC2 cache-miss
// rates of Fig. 3c) force page faults; the addrcheck() path fails over
// instantly instead of waiting for the disk fill. Includes the SF sweep of
// Fig. 7b. Expected: large reductions at p95-p99, small/negative at low
// percentiles where the network hop dominates.

#include <cstdio>

#include "src/harness/experiment.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;

  harness::ExperimentOptions base_opt;
  base_opt.num_nodes = 20;
  base_opt.num_clients = 20;
  base_opt.measure_requests = 6000;
  base_opt.warmup_requests = 300;
  base_opt.access = kv::AccessPath::kMmapAddrCheck;
  base_opt.warm_fraction = 1.0;
  base_opt.num_keys_per_node = 1 << 18;  // 1 GB per node...
  base_opt.cache_pages = 1 << 19;      // ...in a 2 GB page cache.
  base_opt.noise = harness::NoiseKind::kStaticCacheDrop;
  base_opt.cache_drop_fraction = 0.12;  // Per-node P% from the Fig 3c miss rates.
  // A small deadline: "addrcheck returns EBUSY when the data is not cached."
  base_opt.deadline = Micros(100);
  base_opt.hedge_delay = -1;  // p95 of Base (sub-ms here).
  base_opt.seed = 20170104;

  std::printf("=== Figure 7: MittCache vs Hedged (20 nodes, cache contention) ===\n");
  const DurationNs p95 = harness::RunSloBase(base_opt).slo;
  std::printf("hedge delay = Base p95 = %.3f ms; deadline = 0.100 ms\n", ToMillis(p95));

  for (const int sf : {1, 2, 5, 10}) {
    harness::ExperimentOptions opt = base_opt;
    opt.scale_factor = sf;
    opt.hedge_delay = p95;
    opt.measure_requests = static_cast<size_t>(6000 / sf) + 400;
    harness::Experiment experiment(opt);
    const auto base = experiment.Run(StrategyKind::kBase);
    const auto hedged = experiment.Run(StrategyKind::kHedged);
    const auto mitt = experiment.Run(StrategyKind::kMittos);

    std::printf("\n--- Fig 7, SF=%d (user-request latencies) ---\n", sf);
    harness::PrintPercentileTable({base, hedged, mitt}, {50, 75, 90, 95, 99},
                                  /*user_level=*/true);
    std::printf("reduction of MittCache vs Hedged:\n");
    harness::PrintReductionTable(mitt, {hedged}, {75, 90, 95, 99}, /*user_level=*/true);
  }
  return 0;
}
