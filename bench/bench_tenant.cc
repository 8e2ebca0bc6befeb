// bench_tenant: multi-tenant SLO classes + SLO-aware placement
// (src/tenant/, DESIGN.md §4i, ROADMAP item 4).
//
// Thousands of tenants (a Zipf rate mix over gold/silver/bronze SLO
// classes) drive a small SSD cluster open-loop while one node sits under
// continuous IO contention. Three parts:
//
//   1. Melt vs hold — four runs over identical seeds:
//        healthy     no noise, naive uniform placement (reference tail)
//        Base        noisy node, uniform placement, timeout client: every
//                    get whose tenant lands on the hot node waits out its
//                    class SLO before failing over — the per-class p99
//                    melts to SLO+retry territory.
//        MittOS      noisy node, uniform placement, fast-reject failover:
//                    gold dodges the hot node per request (its 15 ms SLO is
//                    tighter than the contended wait, so the predictor
//                    rejects), but silver/bronze SLOs tolerate the wait —
//                    no reject fires and their tails still melt.
//        MittOS+plc  noisy node, SLO-aware PlacementController: drains the
//                    hot node tenant-by-tenant (strictest class first) and
//                    holds per-class p99 near the healthy baseline.
//      Reported as a per-class p50/p95/p99/miss% table plus controller
//      counters (migrations, hot ticks, breaker opens).
//   2. Scale note — tenant count, directory/placement footprint, measured
//      completions per second of wall time.
//   3. Determinism — the uniform + slo-aware pair re-run at every point of
//      the {trial workers 1,4} x {intra workers 1,2} grid with num_shards=2
//      (controller ticks become quiesced ScheduleGlobal events); every run's
//      harness::Fingerprint must match the (1,1) run's or the bench exits
//      nonzero.
//
// Usage: bench_tenant [--small] [out.json]   (default out: BENCH_tenant.json)
//   --small  CI mode: 1000 tenants, shorter measured window, same grid.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/export.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

harness::ExperimentOptions TenantWorld(uint32_t tenants, double rate_hz, bool noisy,
                                       bool slo_aware, DurationNs duration, uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 6;
  opt.num_clients = 0;  // The tenant drivers replace the closed-loop population.
  opt.backend = os::BackendKind::kSsd;
  opt.num_keys_per_node = 1 << 16;
  opt.cache_pages = 1 << 10;  // 4 MB cache over 256 MB/node: gets hit the SSD queues.
  opt.deadline = Millis(20);  // Per-get deadlines come from the class SLO instead.
  opt.seed = seed;
  opt.tenants.enabled = true;
  opt.tenants.mix.num_tenants = tenants;
  opt.tenants.mix.total_rate_hz = rate_hz;
  opt.tenants.mix.rate_zipf_theta = 1.0;
  opt.tenants.slo_aware = slo_aware;
  opt.tenants.warmup = Millis(300);
  opt.tenants.duration = duration;
  opt.noise = noisy ? harness::NoiseKind::kContinuous : harness::NoiseKind::kNone;
  opt.continuous_intensity = 60;  // Node 0 under constant 1 MB-read contention.
  opt.noise_horizon = Seconds(30);
  return opt;
}

// Deterministic scorecard over a result set: integers only (latencies in
// ns), so the JSON never hinges on float printing.
std::string TenantScorecardJson(const std::vector<harness::RunResult>& results) {
  std::string json = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const harness::RunResult& r = results[i];
    json += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" + obs::JsonEscape(r.name) +
            "\", \"tenant_requests\": " + std::to_string(r.tenant_requests) +
            ", \"ebusy_failovers\": " + std::to_string(r.ebusy_failovers) +
            ", \"migrations\": " + std::to_string(r.tenant_migrations) +
            ", \"controller_ticks\": " + std::to_string(r.controller_ticks) +
            ", \"hot_ticks\": " + std::to_string(r.controller_hot_ticks) +
            ", \"breaker_opens\": " + std::to_string(r.breaker_opens) + ", \"classes\": [";
    for (size_t c = 0; c < r.tenant_classes.size(); ++c) {
      const harness::TenantClassStats& cls = r.tenant_classes[c];
      const auto ps = cls.latencies.Percentiles(std::vector<double>{50, 95, 99});
      json += std::string(c == 0 ? "" : ", ") + "{\"name\": \"" + obs::JsonEscape(cls.name) +
              "\", \"slo_ms\": " + std::to_string(cls.slo / 1'000'000) +
              ", \"tenants\": " + std::to_string(cls.tenants) +
              ", \"requests\": " + std::to_string(cls.requests) +
              ", \"deadline_miss\": " + std::to_string(cls.deadline_miss) +
              ", \"failovers\": " + std::to_string(cls.failovers) +
              ", \"errors\": " + std::to_string(cls.errors) +
              ", \"p50_ns\": " + std::to_string(ps[0]) +
              ", \"p95_ns\": " + std::to_string(ps[1]) +
              ", \"p99_ns\": " + std::to_string(ps[2]) +
              ", \"max_ns\": " + std::to_string(cls.latencies.Max()) + "}";
    }
    json += "]}";
  }
  return json + "]";
}

void PrintClassTable(const std::vector<harness::RunResult>& results) {
  std::printf("%-12s %-8s %8s %10s %10s %10s %8s %10s\n", "run", "class", "reqs", "p50 ms",
              "p95 ms", "p99 ms", "miss %", "failovers");
  for (const harness::RunResult& r : results) {
    for (const harness::TenantClassStats& cls : r.tenant_classes) {
      const auto ps = cls.latencies.Percentiles(std::vector<double>{50, 95, 99});
      const double miss_pct =
          cls.requests == 0 ? 0.0
                            : 100.0 * static_cast<double>(cls.deadline_miss) /
                                  static_cast<double>(cls.requests);
      std::printf("%-12s %-8s %8llu %10.2f %10.2f %10.2f %8.2f %10llu\n", r.name.c_str(),
                  cls.name.c_str(), static_cast<unsigned long long>(cls.requests),
                  ToMillis(ps[0]), ToMillis(ps[1]), ToMillis(ps[2]), miss_pct,
                  static_cast<unsigned long long>(cls.failovers));
    }
  }
}

DurationNs ClassP99(const harness::RunResult& r, const char* cls_name) {
  for (const harness::TenantClassStats& cls : r.tenant_classes) {
    if (cls.name == cls_name) {
      return cls.latencies.Percentile(99);
    }
  }
  return 0;
}

// The determinism grid re-runs the noisy uniform/slo-aware pair as two
// parallel trials: num_shards=2 puts the controller on the quiesced
// ScheduleGlobal path and splits the tenant drivers across shards.
std::vector<harness::Trial> GridTrials(uint32_t tenants, double rate_hz, DurationNs duration) {
  std::vector<harness::Trial> trials;
  for (const bool slo_aware : {false, true}) {
    harness::Trial t;
    t.options = TenantWorld(tenants, rate_hz, /*noisy=*/true, slo_aware, duration,
                            /*seed=*/20170919);
    t.options.num_shards = 2;
    t.kind = StrategyKind::kMittos;
    t.rename = slo_aware ? "slo-aware" : "uniform";
    trials.push_back(t);
  }
  return trials;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* json_path = "BENCH_tenant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      json_path = argv[i];
    }
  }

  const uint32_t tenants = small ? 1000 : 2000;
  const double rate_hz = small ? 12000 : 20000;
  const DurationNs duration = small ? Millis(1200) : Seconds(2);

  std::printf("=== bench_tenant: %u tenants, SLO classes, placement control ===\n", tenants);

  // --- Part 1: melt vs hold ---
  std::vector<harness::Trial> trials;
  {
    harness::Trial healthy;
    healthy.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/false, /*slo_aware=*/false, duration, 42);
    healthy.kind = StrategyKind::kMittos;
    healthy.rename = "healthy";
    trials.push_back(healthy);

    harness::Trial base;
    base.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/true, /*slo_aware=*/false, duration, 42);
    base.kind = StrategyKind::kBase;
    base.rename = "Base";
    trials.push_back(base);

    harness::Trial mitt;
    mitt.options = base.options;
    mitt.kind = StrategyKind::kMittos;
    mitt.rename = "MittOS";
    trials.push_back(mitt);

    harness::Trial plc;
    plc.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/true, /*slo_aware=*/true, duration, 42);
    plc.kind = StrategyKind::kMittos;
    plc.rename = "MittOS+plc";
    trials.push_back(plc);
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<harness::RunResult> results = harness::RunTrialsParallel(trials);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::printf("\n--- Per-class tails: node 0 under contention, gold SLO 15 ms ---\n");
  PrintClassTable(results);

  const harness::RunResult& healthy = results[0];
  const harness::RunResult& naive = results[2];
  const harness::RunResult& aware = results[3];
  // Silver is the placement story in one number: its 40 ms SLO tolerates the
  // contended wait, so fast reject never fires for it — only moving the
  // tenants off the hot node can fix its tail.
  auto p99_ratio = [&](const harness::RunResult& r, const char* cls) {
    return static_cast<double>(ClassP99(r, cls)) /
           static_cast<double>(std::max<DurationNs>(ClassP99(healthy, cls), 1));
  };
  const double melt = p99_ratio(naive, "silver");
  const double hold = p99_ratio(aware, "silver");
  std::printf("\nsilver p99 vs healthy: uniform %.2fx (melt), slo-aware %.2fx (hold)\n", melt,
              hold);
  std::printf("gold   p99 vs healthy: uniform %.2fx, slo-aware %.2fx\n",
              p99_ratio(naive, "gold"), p99_ratio(aware, "gold"));
  std::printf("controller: %llu migrations over %llu ticks (%llu hot), %llu breaker opens\n",
              static_cast<unsigned long long>(aware.tenant_migrations),
              static_cast<unsigned long long>(aware.controller_ticks),
              static_cast<unsigned long long>(aware.controller_hot_ticks),
              static_cast<unsigned long long>(aware.breaker_opens));

  // --- Part 2: scale note ---
  uint64_t measured = 0;
  for (const harness::RunResult& r : results) {
    measured += r.tenant_requests;
  }
  std::printf("\n--- Scale: %u tenants/run, %llu measured completions in %.1fs wall ---\n",
              tenants, static_cast<unsigned long long>(measured), wall_s);

  // --- Part 3: determinism grid ---
  const uint32_t grid_tenants = small ? 600 : 1000;
  const double grid_rate = small ? 6000 : 10000;
  const DurationNs grid_duration = Millis(800);
  std::printf("\n--- Determinism: scorecard at {trial 1,4} x {intra 1,2}, %u tenants ---\n",
              grid_tenants);
  const harness::GridRun grid =
      harness::RunOnWorkerGrid(GridTrials(grid_tenants, grid_rate, grid_duration));
  const std::string reference = TenantScorecardJson(grid.results);
  const bool identical = grid.drift.empty();
  const int variants = static_cast<int>(std::size(harness::kWorkerGrid));
  for (const harness::WorkerGridPoint& point : harness::kWorkerGrid) {
    const bool same = std::find(grid.drift.begin(), grid.drift.end(), point.Name()) ==
                      grid.drift.end();
    if (!same) {
      std::fprintf(stderr, "DETERMINISM FAILURE at %s: fingerprint differs\n",
                   point.Name().c_str());
    }
    std::printf("  %s: %zu scorecard bytes %s\n", point.Name().c_str(), reference.size(),
                same ? "(identical)" : "(DIFFERS)");
  }

  // --- Artifact ---
  std::string json = "{\n  \"config\": {\"tenants\": " + std::to_string(tenants) +
                     ", \"rate_hz\": " + std::to_string(static_cast<uint64_t>(rate_hz)) +
                     ", \"small\": " + (small ? "true" : "false") + "},\n";
  json += "  \"runs\": " + TenantScorecardJson(results) + ",\n";
  json += "  \"silver_p99_ratio\": {\"uniform\": " + std::to_string(melt) +
          ", \"slo_aware\": " + std::to_string(hold) + "},\n";
  json += "  \"determinism\": {\"identical\": " + std::string(identical ? "true" : "false") +
          ", \"variants\": " + std::to_string(variants) +
          ", \"scorecard_bytes\": " + std::to_string(reference.size()) + "}\n}\n";
  if (!obs::ValidateJsonSyntax(json)) {
    std::fprintf(stderr, "bench_tenant: generated JSON failed validation\n");
    return 1;
  }
  std::ofstream out(json_path);
  out << json;
  std::printf("\nwrote tenant report to %s\n", json_path);

  return identical ? 0 : 1;
}
