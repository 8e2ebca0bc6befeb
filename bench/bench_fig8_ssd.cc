// Figure 8 (§7.5): MittSSD vs Hedged on one machine hosting six DB
// partitions that share 8 CPU threads. SSD noise is a tenant issuing 64KB
// writes. The paper's surprise: Hedged is *worse* than Base here, because
// the duplicated requests double the number of busy handler threads (12 on
// an 8-thread machine) — CPU contention, not IO, creates the tail. MittSSD
// rejects at the chip level without spawning extra work.

#include <chrono>
#include <cstdio>

#include "src/harness/experiment.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;
  const auto wall_start = std::chrono::steady_clock::now();

  harness::ExperimentOptions base_opt;
  base_opt.num_nodes = 6;  // Six partitions/processes on one machine.
  base_opt.num_clients = 8;  // Handler threads ~ cores: hedges overload the CPU.
  base_opt.shared_cpu_cores = 8;
  base_opt.cpu_cores = 8;
  // At SSD speeds the handlers are CPU-bound, not IO-bound (§7.5): request
  // parsing/serialization dominates the ~0.1ms device time.
  base_opt.handler_cpu = Micros(400);
  base_opt.measure_requests = 9000;
  base_opt.warmup_requests = 400;
  base_opt.backend = os::BackendKind::kSsd;
  base_opt.noise = harness::NoiseKind::kEc2;
  base_opt.ec2 = harness::CompressedEc2Noise();
  base_opt.noise_op = sched::IoOp::kWrite;
  // Striped writes keep a meaningful share of the 128 chips programming.
  base_opt.noise_io_size = 256 << 10;
  base_opt.noise_streams = 2;
  base_opt.deadline = -1;  // p95 of Base.
  base_opt.hedge_delay = -1;
  base_opt.seed = 20170105;

  std::printf("=== Figure 8: MittSSD vs Hedged (6 partitions, 8 shared CPU threads) ===\n");
  harness::SloBase slo = harness::RunSloBase(base_opt);
  const DurationNs p95 = slo.slo;
  harness::Experiment experiment(harness::WithSlo(base_opt, p95));
  std::vector<harness::RunResult> results;
  results.push_back(std::move(slo.base));
  results.push_back(experiment.Run(StrategyKind::kHedged));
  results.push_back(experiment.Run(StrategyKind::kMittos));
  std::printf("deadline / hedge delay = Base p95 = %.3f ms\n\n", ToMillis(p95));

  std::printf("--- Fig 8a: get() latency percentiles ---\n");
  harness::PrintPercentileTable(results, {50, 75, 90, 95, 99, 99.9}, /*user_level=*/false);

  std::printf("\n--- Fig 8b: %% latency reduction of MittSSD vs Hedged, SF sweep ---\n");
  for (const int sf : {1, 2, 5, 10}) {
    harness::ExperimentOptions opt = base_opt;
    opt.scale_factor = sf;
    opt.deadline = p95;
    opt.hedge_delay = p95;
    opt.measure_requests = static_cast<size_t>(6000 / sf) + 300;
    harness::Experiment sweep(opt);
    const auto hedged = sweep.Run(StrategyKind::kHedged);
    const auto mitt = sweep.Run(StrategyKind::kMittos);
    std::printf("SF=%d:\n", sf);
    harness::PrintReductionTable(mitt, {hedged}, {75, 90, 95, 99}, /*user_level=*/true);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::fprintf(stderr, "[perf] fig8 wall-clock %.2fs\n", wall);
  return 0;
}
