// Figure 13 (§7.8.4): MittOS-powered LevelDB + Riak. A 3-node ring of LSM
// nodes bulk-loaded with keys; EC2 disk noise replays on every node. The
// MittOS client attaches the deadline to LevelDB's block reads; EBUSY
// propagates up and triggers replica failover.
//   (a) get() latency CDF, MittCFQ (MittOS client) vs Base (vanilla ring:
//       Base client, no deadline);
//   (b) timeline for one node: EBUSY is returned when (and only when) the
//       node is under noise.

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "src/client/mittos_client.h"
#include "src/client/timeout.h"
#include "src/common/latency_recorder.h"
#include "src/common/table.h"
#include "src/kv/lsm_ring.h"
#include "src/lsm/lsm_node.h"
#include "src/noise/ec2_noise.h"
#include "src/noise/noise_injector.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace {

using namespace mitt;

struct RiakRun {
  LatencyRecorder latencies;
  uint64_t failovers = 0;
  // 500ms-bucketed timeline for node 0: (noise active?, EBUSYs returned).
  std::vector<std::pair<bool, uint64_t>> timeline;
};

RiakRun RunRing(bool mitt_enabled, uint64_t seed) {
  sim::Simulator sim;
  cluster::Network network(&sim, cluster::NetworkParams{}, seed);

  std::vector<std::unique_ptr<lsm::LsmNode>> nodes;
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors;
  std::vector<uint64_t> keys(600000);
  std::iota(keys.begin(), keys.end(), 0);

  noise::Ec2NoiseParams noise_params;
  noise_params.mean_off = Millis(2500);
  noise_params.min_on = Millis(100);
  noise_params.max_on = Millis(800);
  const noise::Ec2NoiseModel noise_model(noise_params, seed ^ 0xEC2);

  for (int i = 0; i < 3; ++i) {
    lsm::LsmNode::Options opt;
    opt.os.backend = os::BackendKind::kDiskCfq;
    opt.os.mitt_enabled = mitt_enabled;
    opt.os.cache.capacity_pages = 1 << 17;  // 512 MB cache under a ~2.4 GB dataset.
    opt.os.seed = seed ^ static_cast<uint64_t>(i);
    nodes.push_back(std::make_unique<lsm::LsmNode>(&sim, i, opt));
    nodes.back()->lsm().BulkLoad(keys);
    os::Os& node_os = nodes.back()->os();
    const int64_t noise_size = 150LL << 30;
    const uint64_t noise_file = node_os.CreateFile(noise_size);
    noise::IoNoiseInjector::Options nopt;
    injectors.push_back(std::make_unique<noise::IoNoiseInjector>(
        &sim, &node_os, noise_file, noise_size,
        noise_model.GenerateSchedule(i, Seconds(120)), nopt,
        seed ^ (0xAB0ULL + static_cast<uint64_t>(i))));
    injectors.back()->Start();
  }

  kv::LsmRing ring(&sim, {nodes[0].get(), nodes[1].get(), nodes[2].get()}, &network);
  // Base: the NoSQL-default 30 s timeout (§2), which never fires here, and
  // no deadline on any try.
  client::TimeoutStrategy base(&sim, &ring, seed, client::TimeoutStrategy::Options{});
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(13);
  client::MittosStrategy mittos(&sim, &ring, seed, mopt);
  client::GetStrategy& strategy =
      mitt_enabled ? static_cast<client::GetStrategy&>(mittos) : base;

  workload::YcsbWorkload::Options wopt;
  wopt.num_keys = keys.size();
  wopt.seed = seed ^ 0xCAFE;
  workload::YcsbWorkload ycsb(wopt);

  RiakRun run;
  size_t completed = 0;
  size_t issued = 0;
  constexpr size_t kTarget = 6000;
  constexpr int kClients = 4;

  // Timeline sampler: every 500ms, record whether node 0 had a noise episode
  // overlapping the bucket (from the deterministic schedule) and how many
  // EBUSYs it returned in the bucket.
  const auto node0_schedule = noise_model.GenerateSchedule(0, Seconds(120));
  auto bucket_noisy = [node0_schedule](TimeNs lo, TimeNs hi) {
    for (const auto& ep : node0_schedule) {
      if (ep.start < hi && ep.start + ep.duration > lo) {
        return true;
      }
    }
    return false;
  };
  // The sampler and `issue` below re-enter themselves by reference; `sim`
  // runs none of their pending events after the run below returns.
  std::function<void(uint64_t)> sample = [&](uint64_t last_ebusy) {
    if (completed >= kTarget) {
      return;
    }
    const uint64_t now_ebusy = nodes[0]->ebusy_returned();
    run.timeline.emplace_back(bucket_noisy(sim.Now() - Millis(500), sim.Now()),
                              now_ebusy - last_ebusy);
    sim.ScheduleDaemon(Millis(500), [&sample, now_ebusy] { sample(now_ebusy); });
  };
  sim.ScheduleDaemon(Millis(500), [&sample] { sample(0); });

  // Issues a client's next get; re-entered from the completion of its last.
  std::function<void()> issue = [&] {
    if (issued >= kTarget) {
      return;
    }
    ++issued;
    const uint64_t key = ycsb.Next().key;
    const TimeNs start = sim.Now();
    strategy.Get(key, [&, start](const client::GetResult&) {
      run.latencies.Record(sim.Now() - start);
      ++completed;
      issue();
    });
  };
  for (int c = 0; c < kClients; ++c) {
    issue();
  }
  sim.RunUntilPredicate([&] { return completed >= kTarget; });
  run.failovers = mittos.ebusy_failovers();
  return run;
}

}  // namespace

int main() {
  std::printf("=== Figure 13: MittOS-powered LevelDB + Riak ===\n");
  const RiakRun base = RunRing(false, 1313);
  const RiakRun mitt = RunRing(true, 1313);

  std::printf("\n--- Fig 13a: Riak get() latency percentiles ---\n");
  Table table({"pct", "Base (ms)", "MittCFQ (ms)"});
  for (const double p : {50.0, 90.0, 92.0, 94.0, 96.0, 98.0, 99.0}) {
    table.AddRow({"p" + Table::Num(p, 0), Table::Num(ToMillis(base.latencies.Percentile(p)), 2),
                  Table::Num(ToMillis(mitt.latencies.Percentile(p)), 2)});
  }
  table.Print();
  std::printf("MittOS replica failovers: %lu\n", static_cast<unsigned long>(mitt.failovers));

  std::printf("\n--- Fig 13b: node-0 timeline (500ms buckets) ---\n");
  std::printf("bucket: N = noise active, . = quiet; digit row = EBUSYs returned\n");
  std::string noise_row;
  std::string ebusy_row;
  for (const auto& [noisy, ebusy] : mitt.timeline) {
    noise_row += noisy ? 'N' : '.';
    ebusy_row += ebusy == 0 ? '0' : (ebusy < 10 ? static_cast<char>('0' + ebusy) : '+');
  }
  std::printf("noise: %s\nEBUSY: %s\n", noise_row.c_str(), ebusy_row.c_str());
  std::printf("\nExpected: EBUSY bursts line up with noise episodes; stray EBUSYs in quiet\n"
              "buckets are self-load (several concurrent LSM block reads), which the\n"
              "predictor correctly reports as deadline-threatening busyness.\n");
  return 0;
}
