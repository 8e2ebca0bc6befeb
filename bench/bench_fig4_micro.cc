// Figure 4 (§7.1): microbenchmarks. 3-node cluster, every get() initially
// directed at the noisy node, and three lines per plot: NoNoise, Base
// (vanilla OS, noise), Mitt* (MittOS, noise).
//
//   (a) MittCFQ, noise at lower priority than the DB  -> Base tail from ~p80;
//   (b) MittCFQ, noise at higher (RealTime) priority  -> Base hurt from p0;
//   (c) MittSSD, 64KB-write noise, 2ms deadline;
//   (d) MittCache, ~20% of cached data dropped, tiny deadline.

#include <chrono>
#include <cstdio>

#include "src/harness/experiment.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

harness::ExperimentOptions MicroBase(uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 2500;
  opt.warmup_requests = 200;
  opt.pin_primary_node = 0;
  opt.noise = harness::NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.seed = seed;
  return opt;
}

void RunCase(const char* title, harness::ExperimentOptions opt,
             const std::vector<double>& percentiles) {
  harness::ExperimentOptions quiet_opt = opt;
  quiet_opt.noise = harness::NoiseKind::kNone;
  // Three independent worlds, fanned out across the trial pool; results come
  // back in trial order, identical to a serial run.
  const auto results = harness::RunTrialsParallel({
      {quiet_opt, StrategyKind::kBase, "NoNoise"},
      {opt, StrategyKind::kBase, ""},
      {opt, StrategyKind::kMittos, ""},
  });
  const auto& mitt = results[2];

  std::printf("\n--- %s ---\n", title);
  harness::PrintPercentileTable(results, percentiles, /*user_level=*/false);
  std::printf("MittOS failovers: %lu / %lu gets\n",
              static_cast<unsigned long>(mitt.ebusy_failovers),
              static_cast<unsigned long>(mitt.requests));
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("=== Figure 4: microbenchmarks (3 nodes, requests hit the noisy node) ===\n");

  {
    harness::ExperimentOptions opt = MicroBase(41);
    opt.deadline = Millis(20);
    opt.noise_io_size = 4096;  // "4 threads of 4KB random reads" (§7.1).
    opt.noise_priority = 7;    // Noise *below* the DB's priority (Fig 4a).
    RunCase("Fig 4a: MittCFQ, low-priority noise (deadline 20ms)", opt,
            {20, 50, 80, 90, 95, 99});
  }
  {
    harness::ExperimentOptions opt = MicroBase(42);
    opt.deadline = Millis(20);
    opt.noise_io_size = 4096;
    opt.noise_class = sched::IoClass::kRealTime;  // Noise above the DB (Fig 4b).
    opt.noise_priority = 0;
    RunCase("Fig 4b: MittCFQ, high-priority noise (deadline 20ms)", opt,
            {5, 20, 50, 80, 90, 95, 99});
  }
  {
    harness::ExperimentOptions opt = MicroBase(43);
    opt.backend = os::BackendKind::kSsd;
    // Reads queued behind tenant writes wait 1-2ms (one or two page
    // programs); a 1ms SLO separates "clean chip" from "queued behind a
    // program", the distinction Fig 4c demonstrates.
    opt.deadline = kMillisecond;
    opt.noise_op = sched::IoOp::kWrite;
    // The writer tenant must keep a meaningful fraction of the 128 chips
    // programming (1-2ms each) for reads to queue behind writes.
    opt.noise_io_size = 256 << 10;
    opt.noise_streams = 3;
    opt.continuous_intensity = 1;
    RunCase("Fig 4c: MittSSD, 64KB-write noise (deadline 2ms)", opt,
            {20, 50, 80, 90, 95, 99});
  }
  {
    harness::ExperimentOptions opt = MicroBase(44);
    opt.access = kv::AccessPath::kMmapAddrCheck;
    opt.warm_fraction = 1.0;
    opt.num_keys_per_node = 1 << 18;  // 1 GB dataset...
    opt.cache_pages = 1 << 19;        // ...in a 2 GB page cache.
    opt.deadline = Micros(100);       // "The user expects an in-memory read."
    opt.noise = harness::NoiseKind::kStaticCacheDrop;
    opt.noise_only_node = 0;
    opt.cache_drop_fraction = 0.4;  // x0.5 node factor -> ~20% swapped out.
    RunCase("Fig 4d: MittCache, ~20% of cached data dropped (deadline 0.1ms)", opt,
            {20, 50, 80, 90, 95, 99});
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::fprintf(stderr, "[perf] fig4 wall-clock %.2fs\n", wall);
  return 0;
}
