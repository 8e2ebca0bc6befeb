// The two-level integration of §5: a LevelDB-like LSM engine whose block
// reads carry deadlines, in a Riak-like replicated ring whose MittOS client
// fails over on EBUSY. Shows writes (WAL + memtable + flush + compaction) creating
// the background noise, and SLO-aware reads cutting through it.
//
// Run:  ./build/examples/slo_aware_lsm

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "src/client/mittos_client.h"
#include "src/common/latency_recorder.h"
#include "src/kv/lsm_ring.h"
#include "src/lsm/lsm_node.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

int main() {
  using namespace mitt;

  sim::Simulator sim;
  cluster::Network network(&sim, cluster::NetworkParams{}, 3);

  // Three LSM nodes, bulk-loaded with 40k keys in L1.
  std::vector<std::unique_ptr<lsm::LsmNode>> nodes;
  std::vector<uint64_t> keys(40000);
  std::iota(keys.begin(), keys.end(), 0);
  for (int i = 0; i < 3; ++i) {
    lsm::LsmNode::Options opt;
    opt.os.mitt_enabled = true;
    opt.lsm.memtable_flush_bytes = 1 << 20;  // Frequent flushes/compactions.
    opt.lsm.l0_compaction_trigger = 3;
    nodes.push_back(std::make_unique<lsm::LsmNode>(&sim, i, opt));
    nodes.back()->lsm().BulkLoad(keys);
  }

  kv::LsmRing ring(&sim, {nodes[0].get(), nodes[1].get(), nodes[2].get()}, &network);
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(13);
  client::MittosStrategy mittos(&sim, &ring, /*seed=*/3, mopt);

  // A mixed workload: 20% puts keep compaction churning, 80% SLO reads.
  workload::YcsbWorkload::Options wopt;
  wopt.num_keys = keys.size();
  wopt.read_fraction = 0.8;
  workload::YcsbWorkload ycsb(wopt);

  LatencyRecorder read_latencies;
  size_t done = 0;
  size_t issued = 0;
  constexpr size_t kOps = 8000;
  // Issues a client's next op; re-entered from the completion of its last.
  std::function<void()> loop = [&] {
    if (issued >= kOps) {
      return;
    }
    ++issued;
    const auto op = ycsb.Next();
    if (op.is_read) {
      const TimeNs start = sim.Now();
      mittos.Get(op.key, [&, start](const client::GetResult&) {
        read_latencies.Record(sim.Now() - start);
        ++done;
        loop();
      });
    } else {
      ring.Put(op.key, [&](Status) {
        ++done;
        loop();
      });
    }
  };
  for (int c = 0; c < 6; ++c) {
    loop();
  }
  sim.RunUntilPredicate([&] { return done >= kOps; });

  std::printf("SLO-aware LSM + ring replication, %zu ops (80%% reads, 13ms deadline):\n\n",
              kOps);
  std::printf("  read p50 / p95 / p99: %.2f / %.2f / %.2f ms\n",
              ToMillis(read_latencies.Percentile(50)), ToMillis(read_latencies.Percentile(95)),
              ToMillis(read_latencies.Percentile(99)));
  std::printf("  EBUSY replica failovers: %lu\n",
              static_cast<unsigned long>(mittos.ebusy_failovers()));
  for (int i = 0; i < 3; ++i) {
    std::printf("  node %d: %lu flushes, %lu compactions, L0=%zu L1=%zu, EBUSY=%lu\n", i,
                static_cast<unsigned long>(nodes[static_cast<size_t>(i)]->lsm().flushes_done()),
                static_cast<unsigned long>(
                    nodes[static_cast<size_t>(i)]->lsm().compactions_done()),
                nodes[static_cast<size_t>(i)]->lsm().level_size(0),
                nodes[static_cast<size_t>(i)]->lsm().level_size(1),
                static_cast<unsigned long>(nodes[static_cast<size_t>(i)]->ebusy_returned()));
  }
  return 0;
}
