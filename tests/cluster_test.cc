#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cpu_pool.h"
#include "src/cluster/network.h"
#include "src/kv/doc_store_node.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace mitt::cluster {
namespace {

TEST(CpuPoolTest, SingleCoreSerializes) {
  sim::Simulator sim;
  CpuPool cpu(&sim, 1);
  std::vector<TimeNs> done;
  for (int i = 0; i < 3; ++i) {
    cpu.Execute(Micros(100), [&] { done.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], Micros(100));
  EXPECT_EQ(done[1], Micros(200));
  EXPECT_EQ(done[2], Micros(300));
}

TEST(CpuPoolTest, MultiCoreRunsInParallel) {
  sim::Simulator sim;
  CpuPool cpu(&sim, 4);
  std::vector<TimeNs> done;
  for (int i = 0; i < 4; ++i) {
    cpu.Execute(Micros(100), [&] { done.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  for (const TimeNs t : done) {
    EXPECT_EQ(t, Micros(100));
  }
}

TEST(CpuPoolTest, OverloadQueues) {
  sim::Simulator sim;
  CpuPool cpu(&sim, 8);
  // 12 jobs on 8 cores (the §7.5 hedge-contention situation): the last 4
  // wait a full burst.
  std::vector<TimeNs> done;
  for (int i = 0; i < 12; ++i) {
    cpu.Execute(Micros(200), [&] { done.push_back(sim.Now()); });
  }
  EXPECT_EQ(cpu.active(), 8);
  EXPECT_EQ(cpu.queued(), 4u);
  sim.Run();
  ASSERT_EQ(done.size(), 12u);
  EXPECT_EQ(done[7], Micros(200));
  EXPECT_EQ(done[11], Micros(400));
}

TEST(NetworkTest, DeliveryTakesOneHop) {
  sim::Simulator sim;
  NetworkParams params;
  Network net(&sim, params, 3);
  TimeNs delivered = -1;
  net.Deliver([&] { delivered = sim.Now(); });
  sim.Run();
  EXPECT_GE(delivered, params.one_way - params.jitter);
  EXPECT_LE(delivered, params.one_way + params.jitter);
  EXPECT_EQ(net.round_trip_estimate(), 2 * params.one_way);
}

kv::DocStoreNode::Options SmallNodeOptions() {
  kv::DocStoreNode::Options opt;
  opt.num_keys = 1 << 16;
  opt.os.backend = os::BackendKind::kDiskCfq;
  return opt;
}

// A cluster smaller than its replication factor keeps one replica on each
// of its nodes.
TEST(ClusterTest, ReplicasAreDistinctAndStable) {
  for (const int nodes : {20, 2}) {
    SCOPED_TRACE(nodes);
    sim::ShardedEngine engine({});
    Cluster::Options opt;
    opt.num_nodes = nodes;
    opt.node = SmallNodeOptions();
    opt.node.os.mitt_enabled = false;
    Cluster cluster(&engine, opt);
    const int group = std::min(Cluster::kReplication, nodes);
    for (uint64_t key = 0; key < 500; ++key) {
      const auto replicas = cluster.ReplicasOf(key);
      ASSERT_EQ(replicas.size, group);
      EXPECT_EQ(replicas, cluster.ReplicasOf(key));
      const std::set<int> unique(replicas.begin(), replicas.end());
      EXPECT_EQ(unique.size(), static_cast<size_t>(group));
    }
  }
}

TEST(ClusterTest, PrimariesSpreadAcrossNodes) {
  sim::ShardedEngine engine({});
  Cluster::Options opt;
  opt.num_nodes = 20;
  opt.node = SmallNodeOptions();
  opt.node.os.mitt_enabled = false;
  Cluster cluster(&engine, opt);
  std::vector<int> hits(20, 0);
  for (uint64_t key = 0; key < 4000; ++key) {
    ++hits[static_cast<size_t>(cluster.ReplicasOf(key)[0])];
  }
  for (const int h : hits) {
    EXPECT_GT(h, 100);
    EXPECT_LT(h, 400);
  }
}

TEST(ClusterTest, SharedCpuPoolIsShared) {
  sim::ShardedEngine engine({});
  Cluster::Options opt;
  opt.num_nodes = 6;
  opt.shared_cpu_cores = 8;
  opt.node = SmallNodeOptions();
  opt.node.os.mitt_enabled = false;
  Cluster cluster(&engine, opt);
  EXPECT_EQ(&cluster.node(0).cpu(), &cluster.node(5).cpu());
  EXPECT_FALSE(cluster.node(0).owns_cpu());
}

class DocStoreNodeTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(DocStoreNodeTest, CachedGetIsSubMillisecond) {
  kv::DocStoreNode::Options opt = SmallNodeOptions();
  kv::DocStoreNode node(&sim_, 0, opt);
  node.WarmCache(1.0);
  TimeNs done = -1;
  Status status = Status::Internal();
  node.HandleGetWithHint(42, sched::kNoDeadline, [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_LT(done, kMillisecond);
}

TEST_F(DocStoreNodeTest, UncachedGetHitsDisk) {
  kv::DocStoreNode::Options opt = SmallNodeOptions();
  kv::DocStoreNode node(&sim_, 0, opt);
  TimeNs done = -1;
  node.HandleGetWithHint(42, sched::kNoDeadline, [&](Status, DurationNs) { done = sim_.Now(); });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_GT(done, kMillisecond);
}

TEST_F(DocStoreNodeTest, MmapPathUsesAddrCheckEbusy) {
  kv::DocStoreNode::Options opt = SmallNodeOptions();
  opt.access = kv::AccessPath::kMmapAddrCheck;
  kv::DocStoreNode node(&sim_, 0, opt);
  node.WarmCache(1.0);
  node.os().DropCachedFraction(1.0);  // Everything swapped out.
  Status status = Status::Internal();
  TimeNs done = -1;
  node.HandleGetWithHint(42, Micros(100), [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.busy());
  EXPECT_LT(done, Millis(1));  // Instant rejection, no disk wait.
  EXPECT_GT(node.ebusy_returned(), 0u);
}

TEST_F(DocStoreNodeTest, ReadPathPropagatesDeadline) {
  kv::DocStoreNode::Options opt = SmallNodeOptions();
  opt.access = kv::AccessPath::kRead;
  kv::DocStoreNode node(&sim_, 0, opt);
  // Saturate the disk with raw reads so MittCFQ predicts a long wait.
  const uint64_t noise_file = node.os().CreateFile(50LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    node.os().ReadWithWaitHint(args, nullptr);
  }
  Status status = Status::Internal();
  TimeNs done = -1;
  node.HandleGetWithHint(7, Millis(15), [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.busy());
  EXPECT_LT(done, kMillisecond);
}

TEST_F(DocStoreNodeTest, ExceptionPathCostsMore) {
  auto run = [&](bool exceptions) {
    sim::Simulator sim;
    kv::DocStoreNode::Options opt = SmallNodeOptions();
    opt.access = kv::AccessPath::kMmapAddrCheck;
    opt.exception_on_ebusy = exceptions;
    kv::DocStoreNode node(&sim, 0, opt);
    TimeNs done = -1;
    node.HandleGetWithHint(42, Micros(50), [&](Status, DurationNs) { done = sim.Now(); });
    sim.RunUntilPredicate([&] { return done >= 0; });
    return done;
  };
  const TimeNs exceptionless = run(false);
  const TimeNs with_exceptions = run(true);
  EXPECT_NEAR(static_cast<double>(with_exceptions - exceptionless),
              static_cast<double>(Micros(200)), static_cast<double>(Micros(20)));
}

// ------------------------------------------------- sharded cluster worlds

// A cluster built on the PDES engine: request and reply both cross shards
// (shard 0 -> node's shard -> shard 0), so completion times exercise the
// mailbox path end to end. The whole delivery log must be bit-identical at
// any worker count, including the env-resolved default (workers=0).
// Both stores: DocStore nodes with half their documents cached, and LSM nodes.
TEST(ShardedClusterTest, CrossShardGetsAreBitIdenticalAcrossWorkerCounts) {
  constexpr int kNodes = 16;
  for (const kv::AccessPath access : {kv::AccessPath::kRead, kv::AccessPath::kLsm}) {
    SCOPED_TRACE(access == kv::AccessPath::kLsm ? "LSM nodes" : "DocStore nodes");
    auto run = [access](int workers) {
      sim::ShardedEngine::Options eopt;
      eopt.num_shards = 4;
      eopt.lookahead = MinOneWayHop(NetworkParams{});
      eopt.workers = workers;
      sim::ShardedEngine engine(eopt);
      Cluster::Options copt;
      copt.num_nodes = kNodes;
      copt.node = SmallNodeOptions();
      copt.node.num_keys = 1 << 10;
      copt.node.access = access;
      copt.seed = 7;
      Cluster cluster(&engine, copt);
      if (access != kv::AccessPath::kLsm) {
        cluster.WarmAll(0.5);
      }

      size_t completed = 0;
      std::vector<TimeNs> done(kNodes, -1);
      for (int n = 0; n < kNodes; ++n) {
        engine.shard(0)->ScheduleAt(Micros(10) * (n + 1), [&engine, &cluster, &done,
                                                           &completed, n] {
          cluster.network().DeliverToNode(n, [&engine, &cluster, &done, &completed, n] {
            cluster.node(n).HandleGetWithHint(
                static_cast<uint64_t>(n) * 17, Millis(20),
                [&engine, &cluster, &done, &completed, n](Status, DurationNs) {
                  cluster.network().Deliver(n, /*dst_shard=*/0, [&engine, &done, &completed, n] {
                    done[n] = engine.shard(0)->Now();
                    ++completed;
                  });
                });
          });
        });
      }
      engine.RunUntilPredicate([&completed] { return completed == kNodes; });
      done.push_back(static_cast<TimeNs>(engine.cross_shard_messages()));
      return done;
    };
    const auto base = run(1);
    EXPECT_GT(base.back(), 0) << "gets must actually cross shards";
    EXPECT_EQ(run(2), base);
    EXPECT_EQ(run(4), base);
    EXPECT_EQ(run(0), base);  // Env-resolved default (4 under the TSan CI job).
  }
}

// A shared CPU pool is cross-node state: on several shards their threads
// would race on it, so only a 1-shard engine may build one. The check must
// hold in release builds, where asserts are compiled out.
TEST(ShardedClusterTest, SharedCpuPoolNeedsOneShard) {
  Cluster::Options copt;
  copt.num_nodes = 4;
  copt.node = SmallNodeOptions();
  copt.shared_cpu_cores = 2;
  for (const int shards : {1, 2}) {
    sim::ShardedEngine::Options eopt;
    eopt.num_shards = shards;
    eopt.lookahead = MinOneWayHop(NetworkParams{});
    sim::ShardedEngine engine(eopt);
    if (shards == 1) {
      Cluster cluster(&engine, copt);
      EXPECT_EQ(cluster.num_nodes(), 4);
    } else {
      EXPECT_THROW({ Cluster cluster(&engine, copt); }, std::invalid_argument);
    }
  }
}

TEST_F(DocStoreNodeTest, PutIsBufferedAndFast) {
  kv::DocStoreNode::Options opt = SmallNodeOptions();
  kv::DocStoreNode node(&sim_, 0, opt);
  TimeNs done = -1;
  Status status = Status::Internal();
  node.HandlePut(42, [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_LT(done, Millis(1));
}

}  // namespace
}  // namespace mitt::cluster
