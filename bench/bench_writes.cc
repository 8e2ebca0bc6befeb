// §7.8.6: write latencies. YCSB write-only workload against DocStore with
// heavy disk noise. Writes are buffered in memory and flushed in the
// background (and the drive's NVRAM absorbs sync writes), so the Base and
// NoNoise latency lines should sit nearly on top of each other.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/latency_recorder.h"
#include "src/common/table.h"
#include "src/noise/noise_injector.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace {

using namespace mitt;

LatencyRecorder RunWrites(bool with_noise) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster::Options copt;
  copt.num_nodes = 3;
  copt.node.num_keys = 1 << 20;
  copt.node.os.mitt_enabled = false;
  copt.seed = 99;
  cluster::Cluster cluster(&engine, copt);

  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors;
  if (with_noise) {
    for (int node = 0; node < 3; ++node) {
      kv::StorageNode& n = cluster.node(node);
      const int64_t size = 100LL << 30;
      const uint64_t file = n.os().CreateFile(size);
      noise::IoNoiseInjector::Options nopt;
      injectors.push_back(std::make_unique<noise::IoNoiseInjector>(
          &sim, &n.os(), file, size,
          std::vector<noise::NoiseEpisode>{{0, Seconds(60), 3}}, nopt,
          static_cast<uint64_t>(node) + 5));
      injectors.back()->Start();
    }
  }

  workload::YcsbWorkload::Options wopt;
  wopt.num_keys = 1 << 20;
  wopt.read_fraction = 0.0;  // Write-only.
  wopt.seed = 7;
  workload::YcsbWorkload ycsb(wopt);

  LatencyRecorder latencies;
  size_t completed = 0;
  constexpr size_t kTarget = 6000;
  constexpr int kClients = 8;

  auto issue = std::make_shared<std::function<void()>>();
  size_t issued = 0;
  *issue = [&] {
    if (issued >= kTarget) {
      return;
    }
    ++issued;
    const uint64_t key = ycsb.Next().key;
    const int primary = cluster.ReplicasOf(key)[0];
    const TimeNs start = sim.Now();
    cluster.network().Deliver([&, key, primary, start] {
      cluster.node(primary).HandlePut(key, [&, start](Status, DurationNs) {
        cluster.network().Deliver([&, start] {
          latencies.Record(sim.Now() - start);
          ++completed;
          (*issue)();
        });
      });
    });
  };
  for (int c = 0; c < kClients; ++c) {
    (*issue)();
  }
  sim.RunUntilPredicate([&] { return completed >= kTarget; });
  return latencies;
}

}  // namespace

int main() {
  std::printf("=== §7.8.6: write latencies are unaffected by disk contention ===\n");
  const LatencyRecorder nonoise = RunWrites(false);
  const LatencyRecorder base = RunWrites(true);

  Table table({"pct", "NoNoise (ms)", "Base+noise (ms)"});
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    table.AddRow({"p" + Table::Num(p, p == static_cast<int>(p) ? 0 : 1),
                  Table::Num(ToMillis(nonoise.Percentile(p)), 3),
                  Table::Num(ToMillis(base.Percentile(p)), 3)});
  }
  table.Print();
  std::printf("\nExpected: the two columns nearly coincide (buffered writes + NVRAM).\n");
  return 0;
}
