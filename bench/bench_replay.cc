// bench_replay: open-loop block-trace replay through the full
// client -> kv -> OS stack (src/trace/, DESIGN.md §4h).
//
// Three parts:
//   1. Scale — stream a multi-million-IO trace (synthetic five-profile mix,
//      or an imported CSV via --csv) through a MittOS cluster and prove the
//      replay path is constant-memory: the same world replays a 1/5 prefix
//      first, and the max-RSS growth from there to the full trace is
//      reported (a streaming cursor adds ~one block of scratch, not the
//      file).
//   2. Scorecard — healthy + fault scenarios x Base / AppTO / MittOS /
//      MittOS+res on the same trace via harness::ScenarioRunner, with the
//      SLO derived from the healthy Base replay's p95 (the paper's rule),
//      plus the obs latency breakdown of the traced MittOS run.
//   3. Determinism — the scorecard re-run at every point of the
//      {trial workers 1,4} x {intra workers 1,2} grid; every run's
//      harness::Fingerprint must match the (1,1) run's or the bench exits
//      nonzero (the CI gate).
//
// Usage: bench_replay [--small] [--csv FILE] [out.json]
//   --small  CI mode: ~50k-IO scale pass and a lighter grid.
//   --csv    import an MSR Cambridge / SNIA CSV instead of generating the
//            synthetic mix (offsets are remapped onto the keyspace span).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"
#include "src/trace/import.h"
#include "src/trace/writer.h"
#include "src/workload/synthetic_trace.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

constexpr uint64_t kFullScaleEvents = 5'000'000;
constexpr uint64_t kSmallScaleEvents = 50'000;

long MaxRssKb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KB on Linux.
}

// The replay world: a small SSD cluster with no background noise, so the
// trace's own arrival process is the only load and replay throughput is
// bounded by the stack, not by a synthetic tenant.
harness::ExperimentOptions ReplayWorld(const std::string& trace_path, uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 0;  // Replay replaces the closed-loop client population.
  opt.num_keys_per_node = 1 << 18;
  opt.backend = os::BackendKind::kSsd;
  opt.noise = harness::NoiseKind::kNone;
  opt.seed = seed;
  opt.replay.trace_path = trace_path;
  // The mix arrives at ~3k IOs/s of trace time; 4x compression keeps a
  // 3-node SSD cluster busy without open-loop queue collapse.
  opt.replay.rate_scale = 4.0;
  return opt;
}

int64_t KeyspaceSpanBytes(const harness::ExperimentOptions& opt) {
  return static_cast<int64_t>(opt.num_keys_per_node) * opt.num_nodes * 4096;
}

struct ScaleReport {
  uint64_t events = 0;
  uint64_t trace_records = 0;
  uint64_t trace_file_bytes = 0;
  uint64_t sim_events = 0;
  long maxrss_prefix_kb = 0;
  long maxrss_full_kb = 0;
  double wall_s = 0;
};

ScaleReport RunScalePass(const std::string& trace_path, uint64_t trace_records,
                         uint64_t trace_file_bytes, uint64_t events) {
  ScaleReport report;
  report.trace_records = trace_records;
  report.trace_file_bytes = trace_file_bytes;

  harness::ExperimentOptions opt = ReplayWorld(trace_path, /*seed=*/42);
  // Entirely unmeasured: the scale pass proves streaming memory behavior,
  // and per-sample recorders would reintroduce O(events) growth.
  opt.replay.warmup_events = ~0ULL;

  // Prefix run establishes the post-world-build high-water mark; the full
  // run then shows how much 5x the events add on top (a streaming replay:
  // almost nothing).
  {
    harness::ExperimentOptions prefix = opt;
    prefix.replay.max_events = events / 5;
    harness::Experiment experiment(prefix);
    (void)experiment.Run(StrategyKind::kMittos);
    report.maxrss_prefix_kb = MaxRssKb();
  }

  opt.replay.max_events = events;
  harness::Experiment experiment(opt);
  const auto start = std::chrono::steady_clock::now();
  const harness::RunResult result = experiment.Run(StrategyKind::kMittos);
  report.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  report.maxrss_full_kb = MaxRssKb();
  report.events = result.replay_events;
  report.sim_events = result.sim_events;
  return report;
}

// One fault scenario on top of healthy: a read-retry latency storm on node
// 0's chips, dense enough to overlap the compressed replay window.
std::vector<harness::FaultScenario> ReplayScenarios() {
  std::vector<harness::FaultScenario> scenarios;
  scenarios.push_back({"healthy", {}, {}});
  fault::FaultPlanBuilder b;
  for (TimeNs t = Millis(50); t < Seconds(120); t += Millis(400)) {
    b.SsdReadRetry(/*node=*/0, t, /*duration=*/Millis(250), /*multiplier=*/25.0, /*chip=*/-1);
  }
  scenarios.push_back({"ssd-read-retry", b.Build(), {}});
  return scenarios;
}

// The grid's (1,1) scorecard JSON; *drift names the grid points whose
// fingerprints differ.
std::string DeterminismScorecard(const std::string& trace_path, uint64_t max_events,
                                 std::vector<std::string>* drift) {
  harness::ScenarioRunner::Options opt;
  opt.base = ReplayWorld(trace_path, /*seed=*/20170919);
  opt.base.replay.max_events = max_events;
  opt.base.replay.warmup_events = max_events / 10;
  // Two engine shards so intra_workers exercises the conservative-PDES path;
  // the mix's five streams partition as stream % 2.
  opt.base.num_nodes = 4;
  opt.base.num_shards = 2;
  opt.strategies = {StrategyKind::kBase, StrategyKind::kMittos, StrategyKind::kMittosResilient};
  harness::ScenarioRunner runner(opt);
  const auto scores = runner.Run({{"healthy", {}, {}}}, drift);
  return harness::ScorecardJson(scores, runner.slo_deadline());
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* csv = nullptr;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv = argv[++i];
    } else {
      json_path = argv[i];
    }
  }
  const uint64_t scale_events = small ? kSmallScaleEvents : kFullScaleEvents;

  std::printf("=== bench_replay: open-loop trace replay through the full stack ===\n");

  // --- Trace preparation ---
  const std::string trace_path = "bench_replay_trace.mitttrace";
  uint64_t trace_records = 0;
  std::string source;
  if (csv != nullptr) {
    trace::CsvImportOptions iopt;
    iopt.remap_span_bytes = KeyspaceSpanBytes(ReplayWorld(trace_path, 42));
    iopt.max_records = scale_events;
    trace::ImportStats stats;
    std::string error;
    if (!trace::ImportBlockCsvFile(csv, trace_path, iopt, &stats, &error)) {
      std::fprintf(stderr, "bench_replay: import failed: %s\n", error.c_str());
      return 1;
    }
    trace_records = stats.imported;
    source = std::string("csv:") + csv;
    std::printf("imported %llu records from %s (%u streams)\n",
                static_cast<unsigned long long>(stats.imported), csv, stats.streams);
  } else {
    std::string error;
    auto writer = trace::TraceWriter::Open(trace_path, {}, &error);
    if (writer == nullptr ||
        !workload::WriteSyntheticMix(workload::PaperTraceProfiles(), Seconds(2400),
                                     /*seed=*/42, scale_events, writer.get()) ||
        !writer->Finish()) {
      std::fprintf(stderr, "bench_replay: trace generation failed: %s\n",
                   writer != nullptr ? writer->error().c_str() : error.c_str());
      return 1;
    }
    trace_records = writer->records_written();
    source = "synthetic-mix";
    std::printf("generated %llu-record synthetic mix (%u streams) -> %s\n",
                static_cast<unsigned long long>(trace_records), writer->streams_seen(),
                trace_path.c_str());
  }
  uint64_t trace_file_bytes = 0;
  {
    std::ifstream f(trace_path, std::ios::binary | std::ios::ate);
    trace_file_bytes = static_cast<uint64_t>(f.tellg());
  }

  // --- Part 1: scale / constant-memory pass ---
  const uint64_t replay_events = std::min(scale_events, trace_records);
  std::printf("\n--- Scale: %llu IOs, MittOS, open loop ---\n",
              static_cast<unsigned long long>(replay_events));
  const ScaleReport scale =
      RunScalePass(trace_path, trace_records, trace_file_bytes, replay_events);
  const long rss_growth = scale.maxrss_full_kb - scale.maxrss_prefix_kb;
  std::printf("replayed %llu events (%llu sim events) in %.1fs — %.0f IOs/s\n",
              static_cast<unsigned long long>(scale.events),
              static_cast<unsigned long long>(scale.sim_events), scale.wall_s,
              static_cast<double>(scale.events) / scale.wall_s);
  std::printf("max RSS after 1/5 prefix %ld KB, after full trace %ld KB (growth %ld KB; "
              "trace file %llu KB)\n",
              scale.maxrss_prefix_kb, scale.maxrss_full_kb, rss_growth,
              static_cast<unsigned long long>(trace_file_bytes / 1024));

  // --- Part 2: scorecard ---
  const uint64_t scorecard_events = small ? 20'000 : 200'000;
  harness::ScenarioRunner::Options sopt;
  sopt.base = ReplayWorld(trace_path, /*seed=*/20170919);
  sopt.base.replay.max_events = scorecard_events;
  sopt.base.replay.warmup_events = scorecard_events / 10;
  sopt.base.trace = true;  // Spans for the latency breakdown.
  sopt.strategies = {StrategyKind::kBase, StrategyKind::kAppTimeout, StrategyKind::kMittos,
                     StrategyKind::kMittosResilient};
  harness::ScenarioRunner runner(sopt);
  const auto scenarios = ReplayScenarios();
  const auto scores = runner.Run(scenarios);
  std::printf("\n--- Scorecard: %llu IOs/run, SLO = healthy Base p95 = %.2f ms ---\n",
              static_cast<unsigned long long>(scorecard_events),
              ToMillis(runner.slo_deadline()));
  harness::PrintScorecard(scores, runner.slo_deadline());

  // Latency breakdown of the healthy MittOS replay (scenario 0, strategy
  // index 2). Empty when the obs subsystem is compiled out.
  const size_t mitt_index = 2;
  const harness::RunResult& traced = runner.results()[mitt_index];
  const obs::LatencyBreakdown breakdown = obs::ComputeLatencyBreakdown(traced.trace_spans);
  if (!breakdown.rows.empty()) {
    std::printf("\n--- Latency breakdown: healthy / MittOS replay ---\n");
    obs::PrintLatencyBreakdown(breakdown);
  }

  // --- Part 3: determinism grid ---
  const uint64_t grid_events = small ? 8'000 : 30'000;
  std::printf("\n--- Determinism: scorecard at {trial 1,4} x {intra 1,2}, %llu IOs ---\n",
              static_cast<unsigned long long>(grid_events));
  std::vector<std::string> drift;
  const std::string reference = DeterminismScorecard(trace_path, grid_events, &drift);
  const bool identical = drift.empty();
  const int variants = static_cast<int>(std::size(harness::kWorkerGrid));
  for (const harness::WorkerGridPoint& point : harness::kWorkerGrid) {
    const bool same = std::find(drift.begin(), drift.end(), point.Name()) == drift.end();
    if (!same) {
      std::fprintf(stderr, "DETERMINISM FAILURE at %s: fingerprint differs\n",
                   point.Name().c_str());
    }
    std::printf("  %s: %zu scorecard bytes %s\n", point.Name().c_str(), reference.size(),
                same ? "(identical)" : "(DIFFERS)");
  }

  // --- Artifact ---
  if (json_path != nullptr) {
    std::string json = "{\n  \"config\": {\"source\": \"" + obs::JsonEscape(source) +
                       "\", \"small\": " + (small ? "true" : "false") +
                       ", \"trace_records\": " + std::to_string(trace_records) +
                       ", \"trace_file_bytes\": " + std::to_string(trace_file_bytes) + "},\n";
    json += "  \"scale\": {\"events\": " + std::to_string(scale.events) +
            ", \"sim_events\": " + std::to_string(scale.sim_events) +
            ", \"wall_s\": " + std::to_string(scale.wall_s) +
            ", \"maxrss_prefix_kb\": " + std::to_string(scale.maxrss_prefix_kb) +
            ", \"maxrss_full_kb\": " + std::to_string(scale.maxrss_full_kb) +
            ", \"maxrss_growth_kb\": " + std::to_string(rss_growth) + "},\n";
    json += "  \"scorecard\": " + harness::ScorecardJson(scores, runner.slo_deadline()) + ",\n";
    json += "  \"breakdown\": [";
    for (size_t i = 0; i < breakdown.rows.size(); ++i) {
      const obs::BreakdownRow& row = breakdown.rows[i];
      json += std::string(i == 0 ? "" : ", ") + "{\"outcome\": \"" +
              std::string(obs::RequestOutcomeName(row.outcome)) +
              "\", \"requests\": " + std::to_string(row.requests) + "}";
    }
    json += "],\n";
    json += "  \"determinism\": {\"identical\": " + std::string(identical ? "true" : "false") +
            ", \"variants\": " + std::to_string(variants) +
            ", \"scorecard_bytes\": " + std::to_string(reference.size()) + "}\n}\n";
    if (!obs::ValidateJsonSyntax(json)) {
      std::fprintf(stderr, "bench_replay: generated JSON failed validation\n");
      return 1;
    }
    std::ofstream out(json_path);
    out << json;
    std::printf("\nwrote replay report to %s\n", json_path);
  }

  return identical ? 0 : 1;
}
