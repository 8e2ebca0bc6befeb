// Sharded-engine scale benchmark: one 1000-node ring trial, parallelized
// *inside* the trial by the conservative-window PDES engine
// (src/sim/sharded_engine.h), measured at 1/2/4/8 intra-trial workers.
//
// This bench measures how far one *trial* scales when its event work is
// spread over shard worker threads (bench_simcore measures the
// single-threaded event loop, bench_hotpath the per-IO pipeline). Two shapes:
//
//   ssd  (default): µs-scale IO -> dense conservative windows. Stresses the
//        barrier, the mailbox drain, and the adaptive shard->worker packing.
//   disk: ms-scale IO and low client concurrency -> sparse windows (a
//        handful of events per shard-window), where synchronization cost
//        dominates useful work. Stresses quiet-frontier window fusion; the
//        workers=1 run is repeated with fusion disabled to report the
//        barrier-count and events/s deltas fusion buys.
//
// Speedups reported, because they answer different questions:
//   - events/s per worker count: measured wall clock on THIS host. Only
//     meaningful when the host has at least `workers` cores (CI containers
//     are often 1-2 vCPUs), so each run carries a wall_speedup_valid flag
//     and invalid speedups print as n/a instead of a misleading < 1x.
//   - critical-path speedup: sim_events / critical_path_events(w) — the sum
//     over conservative windows of the busiest worker's event count, under
//     the engine's adaptive LPT shard map. Host-independent and
//     bit-deterministic (derived from event counts, not timers).
//
// Determinism is asserted, not assumed: every worker count must produce the
// same requests / sim_events / window counts / latency percentiles, and the
// fusion-off comparison run must reproduce the same scorecard, or the bench
// exits nonzero. Perf is report-only (CI runners are noisy); broken
// bit-identity is a correctness bug and fails loudly.
//
// Usage: bench_scalecore [small] [disk]
//   small: CI smoke shape (128 nodes).
//   disk:  disk-bound sparse shape (writes BENCH_scalecore_disk.json).
// Writes BENCH_scalecore.json / BENCH_scalecore_disk.json into the cwd.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"

namespace {

struct WorkerRun {
  int workers = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  bool wall_valid = false;
  mitt::harness::RunResult result;
};

double Lookup(const std::vector<std::pair<int, uint64_t>>& v, int w, uint64_t total) {
  for (const auto& [workers, cp] : v) {
    if (workers == w && cp > 0) {
      return static_cast<double>(total) / static_cast<double>(cp);
    }
  }
  return 0;
}

double Lookup(const std::vector<std::pair<int, double>>& v, int w) {
  for (const auto& [workers, r] : v) {
    if (workers == w) {
      return r;
    }
  }
  return 0;
}

bool SameScorecard(const mitt::harness::RunResult& a, const mitt::harness::RunResult& b,
                   const std::vector<double>& pcts) {
  return a.requests == b.requests && a.sim_events == b.sim_events &&
         a.engine_windows == b.engine_windows &&
         a.cross_shard_messages == b.cross_shard_messages && a.user_errors == b.user_errors &&
         a.ebusy_failovers == b.ebusy_failovers && a.sim_duration == b.sim_duration &&
         a.get_latencies.Percentiles(pcts) == b.get_latencies.Percentiles(pcts) &&
         a.user_latencies.Percentiles(pcts) == b.user_latencies.Percentiles(pcts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mitt;
  using harness::StrategyKind;

  bool small = false;
  bool disk = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "disk") == 0) {
      disk = true;
    } else {
      std::fprintf(stderr, "usage: %s [small] [disk]\n", argv[0]);
      return 2;
    }
  }

  harness::ExperimentOptions opt;
  opt.num_nodes = small ? 128 : 1000;
  opt.num_keys_per_node = small ? 2048 : 4096;  // Full: 4.096M keys on the ring.
  opt.distribution = workload::KeyDistribution::kZipfian;
  opt.cache_pages = 8192;  // Nodes hold 16 MB of docs; keep 1000 cache tables small.
  opt.warm_fraction = 0.5;
  opt.deadline = Millis(13);  // Paper's SLO; skips the Base-derivation pass.
  opt.noise = harness::NoiseKind::kNone;
  opt.seed = 20171000;
  opt.num_shards = small ? 16 : 32;  // Explicit: shard count must not depend
                                     // on worker count (determinism contract).
  if (disk) {
    // Sparse shape: ms-scale IO and few closed-loop clients leave each
    // conservative window (lookahead ~135µs) holding a handful of events on
    // one or two shards — the regime where barrier cost dominates and the
    // quiet-frontier fusion fast path carries most windows.
    // Client count is deliberately tiny: the quiet-frontier regime needs the
    // whole-world event rate times the lookahead (135µs) to stay well below
    // one, or concurrent request chains keep two shards under every window
    // horizon and no window is provably interaction-free.
    opt.backend = os::BackendKind::kDiskCfq;
    opt.num_clients = 2;
    opt.measure_requests = small ? 4'000 : 40'000;
    opt.warmup_requests = small ? 400 : 2'000;
    opt.scale_factor = 1;
  } else {
    opt.backend = os::BackendKind::kSsd;  // µs-scale IO -> ~100x the event
                                          // density per window of the disk
                                          // backend; stresses the engine,
                                          // not the device model.
    opt.num_clients = small ? 256 : 2000;
    opt.measure_requests = small ? 20'000 : 2'000'000;
    opt.warmup_requests = small ? 2'000 : 100'000;
    opt.scale_factor = small ? 1 : 10;  // Full: 10 gets per request -> 21M gets.
  }

  const size_t total_gets =
      (opt.measure_requests + opt.warmup_requests) * static_cast<size_t>(opt.scale_factor);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("=== bench_scalecore[%s]: %d-node ring, %lld keys, %zu gets, %d shards ===\n",
              disk ? "disk" : "ssd", opt.num_nodes,
              static_cast<long long>(opt.num_keys_per_node) * opt.num_nodes, total_gets,
              opt.num_shards);
  std::printf("host cpus: %u (wall-clock speedups reported only up to the core count; "
              "critical-path speedup below is host-independent)\n",
              host_cpus);

  const auto run_once = [&opt, host_cpus](int workers, int fusion) {
    harness::ExperimentOptions wopt = opt;
    wopt.intra_workers = workers;
    wopt.engine_fusion = fusion;
    harness::Experiment experiment(wopt);
    const auto t0 = std::chrono::steady_clock::now();
    harness::RunResult result = experiment.Run(StrategyKind::kMittos);
    const auto t1 = std::chrono::steady_clock::now();
    WorkerRun run;
    run.workers = workers;
    run.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    run.events_per_sec =
        run.wall_sec > 0 ? static_cast<double>(result.sim_events) / run.wall_sec : 0;
    run.wall_valid = host_cpus >= static_cast<unsigned>(workers);
    run.result = std::move(result);
    std::printf(
        "workers=%d%s  wall=%7.2fs  events=%llu  events/s=%11.0f  windows=%llu  "
        "fused=%llu  xshard_msgs=%llu\n",
        workers, fusion == 0 ? " (fusion off)" : "", run.wall_sec,
        static_cast<unsigned long long>(run.result.sim_events), run.events_per_sec,
        static_cast<unsigned long long>(run.result.engine_windows),
        static_cast<unsigned long long>(run.result.engine_fused_windows),
        static_cast<unsigned long long>(run.result.cross_shard_messages));
    return run;
  };

  std::vector<WorkerRun> runs;
  runs.push_back(run_once(1, /*fusion=*/-1));
  // The fusion A/B pair runs back to back, alternating, and each arm keeps
  // its fastest wall: small shared hosts show 1.5-2x wall-clock noise on
  // bit-identical work, and min-of-N is the standard de-noiser. Every rep's
  // scorecard is still gated (identical work is what makes min-of-N sound).
  WorkerRun unfused_run = run_once(1, /*fusion=*/0);
  bool fusion_reps_identical = true;
  {
    const std::vector<double> rep_pcts = {50, 90, 95, 99, 99.9};
    for (int rep = 1; rep < 3; ++rep) {
      WorkerRun on = run_once(1, /*fusion=*/-1);
      WorkerRun off = run_once(1, /*fusion=*/0);
      fusion_reps_identical = fusion_reps_identical &&
                              SameScorecard(on.result, runs[0].result, rep_pcts) &&
                              SameScorecard(off.result, unfused_run.result, rep_pcts);
      if (on.wall_sec < runs[0].wall_sec) {
        runs[0] = std::move(on);
      }
      if (off.wall_sec < unfused_run.wall_sec) {
        unfused_run = std::move(off);
      }
    }
  }
  for (const int workers : {2, 4, 8}) {
    runs.push_back(run_once(workers, /*fusion=*/-1));
  }

  // --- Bit-identity gate: every worker count is the same simulation. ---------
  bool identical = true;
  const harness::RunResult& ref = runs[0].result;
  const std::vector<double> pcts = {50, 90, 95, 99, 99.9};
  for (size_t i = 1; i < runs.size(); ++i) {
    const harness::RunResult& r = runs[i].result;
    // Fusion decisions are worker-independent too: the fast-path predicate
    // reads only simulation state, so the fused-window count must match.
    if (!SameScorecard(r, ref, pcts) ||
        r.engine_fused_windows != ref.engine_fused_windows) {
      identical = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: workers=%d diverged from workers=%d "
                   "(requests %llu vs %llu, events %llu vs %llu, duration %lld vs %lld)\n",
                   runs[i].workers, runs[0].workers,
                   static_cast<unsigned long long>(r.requests),
                   static_cast<unsigned long long>(ref.requests),
                   static_cast<unsigned long long>(r.sim_events),
                   static_cast<unsigned long long>(ref.sim_events),
                   static_cast<long long>(r.sim_duration),
                   static_cast<long long>(ref.sim_duration));
    }
  }
  if (!fusion_reps_identical) {
    identical = false;
    std::fprintf(stderr, "DETERMINISM VIOLATION: a fusion A/B rep diverged\n");
  }
  std::printf("determinism across worker counts: %s\n", identical ? "OK" : "FAILED");

  // --- Fusion value: the adjacent workers=1 run with the fast path disabled.
  // Same scorecard (fusion is schedule-preserving, gated), fewer barriers and
  // more events/s with it on (reported; perf itself is not gated).
  const harness::RunResult& unfused = unfused_run.result;
  const double fusion_wall_sec = unfused_run.wall_sec;
  double fusion_barrier_ratio = 0;
  double fusion_events_ratio = 0;
  const bool fusion_identical =
      SameScorecard(unfused, ref, pcts) && unfused.engine_fused_windows == 0;
  {
    if (!fusion_identical) {
      identical = false;
      std::fprintf(stderr, "DETERMINISM VIOLATION: fusion=off diverged from fusion=on\n");
    }
    const double unfused_barriers = static_cast<double>(unfused.engine_windows);
    const double fused_barriers =
        static_cast<double>(ref.engine_windows - ref.engine_fused_windows);
    fusion_barrier_ratio = fused_barriers > 0 ? unfused_barriers / fused_barriers : 0;
    fusion_events_ratio = unfused_run.events_per_sec > 0
                              ? runs[0].events_per_sec / unfused_run.events_per_sec
                              : 0;
    std::printf(
        "fusion (workers=1): barriers %llu -> %llu (%.1fx fewer), events/s %.2fx, "
        "scorecard %s\n",
        static_cast<unsigned long long>(unfused.engine_windows),
        static_cast<unsigned long long>(ref.engine_windows - ref.engine_fused_windows),
        fusion_barrier_ratio, fusion_events_ratio, fusion_identical ? "identical" : "DIVERGED");
  }

  const double base_eps = runs[0].events_per_sec;
  std::printf("wall-clock scaling vs workers=1:");
  for (const WorkerRun& run : runs) {
    if (run.wall_valid && base_eps > 0) {
      std::printf("  %dw %.2fx", run.workers, run.events_per_sec / base_eps);
    } else {
      std::printf("  %dw n/a", run.workers);  // Fewer cores than workers.
    }
  }
  std::printf("\n");

  // Deterministic parallelism exposed by the engine: total events over the
  // busiest worker's events.
  std::printf("critical-path speedup (host-independent):");
  for (const auto& [w, cp] : ref.critical_path) {
    std::printf("  %dw %.2fx", w,
                cp > 0 ? static_cast<double>(ref.sim_events) / static_cast<double>(cp) : 0);
  }
  std::printf("\n");
  std::printf("imbalance max/mean at 8w: %.3f\n", Lookup(ref.imbalance, 8));
  std::printf("events/window: p50 %.0f, p99 %.0f; windows=%llu fused=%llu\n",
              ref.events_per_window_p50, ref.events_per_window_p99,
              static_cast<unsigned long long>(ref.engine_windows),
              static_cast<unsigned long long>(ref.engine_fused_windows));
  const auto ref_get = ref.get_latencies.Percentiles(pcts);
  std::printf("p95 get latency: %.2f ms over %llu requests\n",
              ToMillis(ref_get[2]), static_cast<unsigned long long>(ref.requests));

  const char* json_name = disk ? "BENCH_scalecore_disk.json" : "BENCH_scalecore.json";
  FILE* out = std::fopen(json_name, "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"scalecore\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"shape\": \"%s\",\n"
                 "  \"workload\": {\"num_nodes\": %d, \"num_clients\": %d,\n"
                 "               \"keys_total\": %lld, \"requests\": %zu,\n"
                 "               \"scale_factor\": %d, \"gets_total\": %zu,\n"
                 "               \"num_shards\": %d, \"seed\": %llu},\n"
                 "  \"host_cpus\": %u,\n"
                 "  \"deterministic_across_workers\": %s,\n"
                 "  \"sim_events\": %llu,\n"
                 "  \"engine_windows\": %llu,\n"
                 "  \"fused_windows\": %llu,\n"
                 "  \"cross_shard_messages\": %llu,\n"
                 "  \"events_per_window_p50\": %.1f,\n"
                 "  \"events_per_window_p99\": %.1f,\n"
                 "  \"imbalance_adaptive_8w\": %.4f,\n"
                 "  \"fusion\": {\"scorecard_identical\": %s, \"barrier_ratio\": %.2f,\n"
                 "             \"events_per_sec_ratio\": %.3f, \"unfused_wall_sec\": %.3f},\n"
                 "  \"runs\": [\n",
                 small ? "small" : "full", disk ? "disk" : "ssd", opt.num_nodes,
                 opt.num_clients, static_cast<long long>(opt.num_keys_per_node) * opt.num_nodes,
                 opt.measure_requests + opt.warmup_requests, opt.scale_factor, total_gets,
                 opt.num_shards, static_cast<unsigned long long>(opt.seed), host_cpus,
                 identical ? "true" : "false",
                 static_cast<unsigned long long>(ref.sim_events),
                 static_cast<unsigned long long>(ref.engine_windows),
                 static_cast<unsigned long long>(ref.engine_fused_windows),
                 static_cast<unsigned long long>(ref.cross_shard_messages),
                 ref.events_per_window_p50, ref.events_per_window_p99,
                 Lookup(ref.imbalance, 8),
                 fusion_identical ? "true" : "false", fusion_barrier_ratio,
                 fusion_events_ratio, fusion_wall_sec);
    for (size_t i = 0; i < runs.size(); ++i) {
      const WorkerRun& run = runs[i];
      std::fprintf(out,
                   "    {\"workers\": %d, \"wall_sec\": %.3f, \"events_per_sec\": %.0f,\n"
                   "     \"wall_speedup_valid\": %s, \"speedup_vs_1\": %.3f,\n"
                   "     \"critical_path_speedup\": %.3f, \"imbalance\": %.4f}%s\n",
                   run.workers, run.wall_sec, run.events_per_sec,
                   run.wall_valid ? "true" : "false",
                   run.wall_valid && base_eps > 0 ? run.events_per_sec / base_eps : 0,
                   Lookup(ref.critical_path, run.workers, ref.sim_events),
                   Lookup(ref.imbalance, run.workers), i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_name);
  }
  return identical ? 0 : 1;
}
