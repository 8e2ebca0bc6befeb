// Figure 6 (§7.3): tail amplified by scale. A user request fans out SF
// parallel get()s and waits for all of them; with SF in {1, 2, 5, 10} the
// fraction of user requests dragged past the deadline grows for Hedged
// (which must wait before reacting) while MittCFQ's instant rejection keeps
// the amplification small. Expected: MittCFQ's reduction vs Hedged grows
// with SF (up to ~35% at p95 with SF=5 in the paper).
//
// The grid also doubles as the intra-trial parallelism smoke: each trial is
// sharded (num_shards=4) and the whole grid is run twice — once pinned to
// one intra-trial worker, once with $MITT_INTRA_WORKERS (default 1) — with
// wall-clock for both passes on stderr. The printed tables come from the
// first pass and the second pass is asserted bit-identical, so stdout never
// depends on the worker count (the engine's determinism contract).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/harness/experiment.h"
#include "src/sim/sharded_engine.h"

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
  base_opt.seed = 20170102;
  base_opt.num_shards = 4;  // Shard even this small ring so the trial runs
                            // across engine shards (windows, mailboxes).

  // Derive the p95 deadline once, at SF=1 (the paper keeps 13ms throughout).
  const DurationNs p95 = harness::RunSloBase(base_opt).slo;
  std::printf("=== Figure 6: tail amplified by scale (MittCFQ vs Hedged) ===\n");
  std::printf("deadline / hedge delay = SF=1 Base p95 = %.2f ms\n", ToMillis(p95));

  // All SF x strategy worlds are independent: fan the whole grid out across
  // the trial pool and print per-SF groups from the order-preserving merge.
  const std::vector<int> scale_factors = {1, 2, 5, 10};
  std::vector<harness::Trial> trials;
  for (const int sf : scale_factors) {
    harness::ExperimentOptions opt = base_opt;
    opt.scale_factor = sf;
    opt.deadline = p95;
    opt.hedge_delay = p95;
    opt.measure_requests = static_cast<size_t>(5000 / sf) + 500;
    trials.push_back({opt, StrategyKind::kBase, ""});
    trials.push_back({opt, StrategyKind::kHedged, ""});
    trials.push_back({opt, StrategyKind::kMittos, ""});
  }

  // Pass 1: every trial pinned to one intra-trial worker (the sequential
  // baseline). Pass 2: the env-configured worker count. Both on stderr so
  // stdout stays a pure function of the simulation.
  std::vector<harness::Trial> pinned = trials;
  for (auto& t : pinned) t.options.intra_workers = 1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = harness::RunTrialsParallel(pinned);
  const auto t1 = std::chrono::steady_clock::now();
  const auto results_mw = harness::RunTrialsParallel(trials);
  const auto t2 = std::chrono::steady_clock::now();
  std::fprintf(stderr, "[fig6_scale] grid wall before (intra_workers=1): %.2fs\n",
               std::chrono::duration<double>(t1 - t0).count());
  std::fprintf(stderr, "[fig6_scale] grid wall after  (intra_workers=%d): %.2fs\n",
               sim::DefaultIntraWorkers(),
               std::chrono::duration<double>(t2 - t1).count());

  for (size_t i = 0; i < results.size(); ++i) {
    if (harness::Fingerprint(results[i]) != harness::Fingerprint(results_mw[i])) {
      std::fprintf(stderr,
                   "[fig6_scale] DETERMINISM VIOLATION: trial %zu diverged between "
                   "intra_workers=1 and intra_workers=%d\n",
                   i, sim::DefaultIntraWorkers());
      return 1;
    }
  }

  for (size_t i = 0; i < scale_factors.size(); ++i) {
    const auto& base = results[3 * i];
    const auto& hedged = results[3 * i + 1];
    const auto& mitt = results[3 * i + 2];
    std::printf("\n--- Fig 6: scale factor SF=%d (user-request latencies) ---\n",
                scale_factors[i]);
    harness::PrintPercentileTable({base, hedged, mitt}, {50, 75, 90, 95, 99},
                                  /*user_level=*/true);
    std::printf("reduction of MittCFQ vs Hedged:\n");
    harness::PrintReductionTable(mitt, {hedged}, {75, 90, 95, 99}, /*user_level=*/true);
  }
  return 0;
}
