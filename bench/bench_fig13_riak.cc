// Figure 13 (§7.8.4): MittOS-powered LevelDB + Riak. A 3-node cluster of LSM
// nodes (kv::AccessPath::kLsm), each bulk-loaded with 600k keys; EC2 disk
// noise replays on every node. The MittOS client attaches the deadline to
// LevelDB's block reads; EBUSY propagates up and triggers replica failover.
//   (a) get() latency CDF, MittCFQ (MittOS client) vs Base (vanilla ring:
//       Base client, no deadline);
//   (b) timeline for one node, from the MittCFQ run's trace: EBUSY is
//       returned when (and only when) the node is under noise.
//
// Exits 1 unless MittCFQ's p98 and p99 are below Base's, and, with the obs
// layer compiled in, unless the trace dropped no span and more than three
// quarters of node 0's EBUSYs fall in noisy buckets.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/gate.h"

int main() {
  using namespace mitt;

  harness::ExperimentOptions o;
  o.num_nodes = 3;
  o.num_clients = 4;
  o.measure_requests = 6000;
  o.warmup_requests = 0;
  o.distribution = workload::KeyDistribution::kZipfian;  // YCSB's default.
  o.num_keys_per_node = 600000;
  o.access = kv::AccessPath::kLsm;
  o.cache_pages = 1 << 17;  // 512 MB cache under a ~2.4 GB dataset.
  o.deadline = Millis(13);
  o.ec2.mean_off = Millis(2500);
  o.ec2.min_on = Millis(100);
  o.ec2.max_on = Millis(800);
  o.seed = 1313;
  harness::ExperimentOptions traced = o;
  traced.trace = true;
  const std::vector<harness::RunResult> runs = harness::RunTrialsParallel(
      {{o, harness::StrategyKind::kBase, ""},
       {traced, harness::StrategyKind::kMittos, "MittCFQ"}});
  const harness::RunResult& base = runs[0];
  const harness::RunResult& mitt = runs[1];
  bool ok = true;

  std::printf("=== Figure 13: MittOS-powered LevelDB + Riak ===\n");
  std::printf("\n--- Fig 13a: Riak get() latency percentiles ---\n");
  harness::PrintPercentileTable(runs, {50, 90, 92, 94, 96, 98, 99}, /*user_level=*/false);
  std::printf("MittOS replica failovers: %lu\n",
              static_cast<unsigned long>(mitt.ebusy_failovers));
  for (const double p : {98.0, 99.0}) {
    if (mitt.get_latencies.Percentile(p) >= base.get_latencies.Percentile(p)) {
      std::printf("FAIL: MittCFQ p%.0f is not below Base's\n", p);
      ok = false;
    }
  }

  std::printf("\n--- Fig 13b: node-0 timeline (500ms buckets) ---\n");
#if MITT_OBS_ENABLED
  constexpr DurationNs kBucket = Millis(500);
  const auto buckets = static_cast<size_t>((mitt.sim_duration + kBucket - 1) / kBucket);
  std::vector<uint64_t> ebusy(buckets, 0);
  for (const obs::SpanRecord& span : mitt.trace_spans) {
    if (span.kind == obs::SpanKind::kEbusyReject && span.node == 0) {
      ++ebusy[std::min(buckets - 1, static_cast<size_t>(span.begin / kBucket))];
    }
  }
  const std::vector<noise::NoiseEpisode> schedule = harness::Ec2Schedule(o, 0);
  std::string noise_row;
  std::string ebusy_row;
  uint64_t total = 0;
  uint64_t in_noise = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const TimeNs lo = static_cast<TimeNs>(b) * kBucket;
    bool noisy = false;
    for (const noise::NoiseEpisode& ep : schedule) {
      noisy = noisy || (ep.start < lo + kBucket && ep.start + ep.duration > lo);
    }
    noise_row += noisy ? 'N' : '.';
    ebusy_row += ebusy[b] < 10 ? static_cast<char>('0' + ebusy[b]) : '+';
    total += ebusy[b];
    in_noise += noisy ? ebusy[b] : 0;
  }
  std::printf("bucket: N = noise active, . = quiet; digit row = EBUSYs returned\n");
  std::printf("noise: %s\nEBUSY: %s\n", noise_row.c_str(), ebusy_row.c_str());
  std::printf("node-0 EBUSYs in noisy buckets: %lu of %lu; trace spans dropped: %lu\n",
              static_cast<unsigned long>(in_noise), static_cast<unsigned long>(total),
              static_cast<unsigned long>(mitt.trace_dropped));
  if (mitt.trace_dropped != 0) {
    std::printf("FAIL: the trace dropped spans, so the timeline is incomplete\n");
    ok = false;
  }
  if (4 * in_noise <= 3 * total) {
    std::printf("FAIL: no more than three quarters of node 0's EBUSYs fall in noisy buckets\n");
    ok = false;
  }
  std::printf("\nExpected: EBUSY bursts line up with noise episodes; stray EBUSYs in quiet\n"
              "buckets are self-load (several concurrent LSM block reads), which the\n"
              "predictor correctly reports as deadline-threatening busyness.\n");
#else
  std::printf("(13b needs the obs layer: observability compiled out, no trace)\n");
#endif
  return ok ? 0 : 1;
}
