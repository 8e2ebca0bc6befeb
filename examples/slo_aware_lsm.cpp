// The two-level integration of §5: a LevelDB-like LSM engine whose block
// reads carry deadlines, in a Riak-like replicated cluster whose MittOS client
// fails over on EBUSY. Half the operations are updates (YCSB workload A,
// uniform keys), so writes (WAL + memtable + flush + compaction) create the
// background noise, and SLO-aware reads cut through it. Exits 1 unless every
// node flushed and compacted at least once.
//
// Run:  ./build/examples/slo_aware_lsm

#include <cstdio>
#include <functional>

#include "src/client/mittos_client.h"
#include "src/cluster/cluster.h"
#include "src/common/latency_recorder.h"
#include "src/lsm/lsm_node.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

int main() {
  using namespace mitt;

  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  // Three LSM nodes, each bulk-loaded with 40k keys in L1.
  cluster::Cluster::Options copt;
  copt.num_nodes = 3;
  copt.node.access = kv::AccessPath::kLsm;
  copt.node.num_keys = 40000;
  copt.node.os.mitt_enabled = true;
  copt.seed = 3;
  cluster::Cluster cluster(&engine, copt);
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(13);
  client::MittosStrategy mittos(&sim, &cluster, /*seed=*/3, mopt);

  workload::YcsbWorkload::Options wopt;
  wopt.num_keys = static_cast<uint64_t>(copt.node.num_keys);
  wopt.read_fraction = 0.5;
  wopt.distribution = workload::KeyDistribution::kUniform;
  workload::YcsbWorkload ycsb(wopt);

  LatencyRecorder read_latencies;
  size_t done = 0;
  size_t issued = 0;
  constexpr size_t kOps = 60000;
  // Issues a client's next op; re-entered from the completion of its last.
  std::function<void()> loop = [&] {
    if (issued >= kOps) {
      return;
    }
    ++issued;
    const auto op = ycsb.Next();
    if (op.is_read) {
      const TimeNs start = sim.Now();
      mittos.Get(op.key, {}, [&, start](const client::GetResult&) {
        read_latencies.Record(sim.Now() - start);
        ++done;
        loop();
      });
    } else {
      cluster.Put(op.key, [&](Status) {
        ++done;
        loop();
      });
    }
  };
  // Two closed-loop clients: enough reads to meet the compactions, few
  // enough that the disks are not saturated by the reads alone.
  for (int c = 0; c < 2; ++c) {
    loop();
  }
  sim.RunUntilPredicate([&] { return done >= kOps; });

  std::printf("SLO-aware LSM + ring replication, %zu ops (50%% reads, 13ms deadline):\n\n",
              kOps);
  std::printf("  read p50 / p95 / p99: %.2f / %.2f / %.2f ms\n",
              ToMillis(read_latencies.Percentile(50)), ToMillis(read_latencies.Percentile(95)),
              ToMillis(read_latencies.Percentile(99)));
  std::printf("  EBUSY replica failovers: %lu\n",
              static_cast<unsigned long>(mittos.ebusy_failovers()));
  bool churned = true;
  for (int i = 0; i < copt.num_nodes; ++i) {
    auto& node = static_cast<lsm::LsmNode&>(cluster.node(i));
    const lsm::LsmTree& tree = node.lsm();
    std::printf("  node %d: %lu flushes, %lu compactions, L0=%zu L1=%zu, EBUSY=%lu\n", i,
                static_cast<unsigned long>(tree.flushes_done()),
                static_cast<unsigned long>(tree.compactions_done()), tree.level_size(0),
                tree.level_size(1), static_cast<unsigned long>(node.ebusy_returned()));
    churned = churned && tree.flushes_done() > 0 && tree.compactions_done() > 0;
  }
  if (!churned) {
    std::printf("FAIL: every node must flush and compact at least once\n");
    return 1;
  }
  return 0;
}
