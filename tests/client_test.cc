#include <gtest/gtest.h>

#include <memory>

#include "src/client/adaptive.h"
#include "src/client/clone.h"
#include "src/client/mittos_client.h"
#include "src/client/timeout.h"
#include "src/cluster/cluster.h"
#include "src/noise/noise_injector.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace mitt::client {
namespace {

// A 3-node cluster where node `noisy` is under heavy continuous contention.
class ClientFixture : public ::testing::Test {
 protected:
  void Build(bool mitt_enabled, int noisy_node = -1) {
    cluster::Cluster::Options opt;
    opt.num_nodes = 3;
    opt.node.num_keys = 1 << 18;
    opt.node.os.backend = os::BackendKind::kDiskCfq;
    opt.node.os.mitt_enabled = mitt_enabled;
    cluster_ = std::make_unique<cluster::Cluster>(&engine_, opt);
    if (noisy_node >= 0) {
      kv::StorageNode& n = cluster_->node(noisy_node);
      const int64_t size = 100LL << 30;
      const uint64_t file = n.os().CreateFile(size);
      noise::IoNoiseInjector::Options nopt;
      nopt.streams_per_intensity = 2;
      injector_ = std::make_unique<noise::IoNoiseInjector>(
          &sim_, &n.os(), file, size,
          std::vector<noise::NoiseEpisode>{{0, Seconds(30), 3}}, nopt, 99);
      injector_->Start();
    }
  }

  // A key whose primary replica is `node`.
  uint64_t KeyWithPrimary(int node) {
    for (uint64_t key = 0;; ++key) {
      if (cluster_->ReplicasOf(key)[0] == node) {
        return key;
      }
    }
  }

  DurationNs RunOneGet(GetStrategy& strategy, uint64_t key, GetResult* out = nullptr) {
    const TimeNs start = sim_.Now();
    TimeNs done = -1;
    GetResult result;
    strategy.Get(key, {}, [&](const GetResult& r) {
      result = r;
      done = sim_.Now();
    });
    sim_.RunUntilPredicate([&] { return done >= 0; });
    if (out != nullptr) {
      *out = result;
    }
    return done - start;
  }

  sim::ShardedEngine engine_{{}};
  sim::Simulator& sim_ = *engine_.shard(0);
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<noise::IoNoiseInjector> injector_;
};

TEST_F(ClientFixture, BaseWaitsOutTheNoise) {
  Build(/*mitt_enabled=*/false, /*noisy_node=*/0);
  TimeoutStrategy base(&sim_, cluster_.get(), 1, TimeoutStrategy::Options{});
  sim_.RunUntil(Millis(100));  // Let the noise build a queue.
  GetResult result;
  const DurationNs latency = RunOneGet(base, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.tries, 1);
  EXPECT_GT(latency, Millis(20));  // Stuck behind the noisy queue.
}

TEST_F(ClientFixture, AppTimeoutFailsOverAfterWaiting) {
  Build(false, 0);
  TimeoutStrategy::Options opt;
  opt.timeout = Millis(15);
  TimeoutStrategy appto(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  GetResult result;
  const DurationNs latency = RunOneGet(appto, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(result.tries, 2);                 // Failed over off the noisy node.
  EXPECT_GT(latency, Millis(15));             // ...but only after the timeout.
  EXPECT_LT(latency, Millis(45));             // Then a clean replica answered.
  EXPECT_GT(appto.timeouts_fired(), 0u);
}

TEST_F(ClientFixture, AppTimeoutWithoutFailoverSurfacesError) {
  Build(false, 0);
  TimeoutStrategy::Options opt;
  opt.timeout = Millis(15);
  opt.failover_on_timeout = false;  // Table 1's surprising behaviour.
  TimeoutStrategy appto(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  GetResult result;
  RunOneGet(appto, KeyWithPrimary(0), &result);
  EXPECT_EQ(result.status.code(), StatusCode::kTimeout);
}

TEST_F(ClientFixture, CloneTakesFasterReplica) {
  Build(false, 0);
  CloneStrategy clone(&sim_, cluster_.get(), 1);
  sim_.RunUntil(Millis(100));
  // Average over several keys: with 2-of-3 replicas contacted, most requests
  // have at least one clean replica and finish in mechanical time.
  DurationNs total = 0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    total += RunOneGet(clone, KeyWithPrimary(0) + static_cast<uint64_t>(i) * 7);
  }
  EXPECT_LT(total / n, Millis(25));
}

TEST_F(ClientFixture, CloneReachesBothNodesOfATwoNodeGroup) {
  // Two nodes make two-replica groups: every Get's two copies must go to
  // distinct nodes, never twice to one.
  cluster::Cluster::Options opt;
  opt.num_nodes = 2;
  opt.node.num_keys = 1 << 18;
  opt.node.os.backend = os::BackendKind::kDiskCfq;
  cluster_ = std::make_unique<cluster::Cluster>(&engine_, opt);
  CloneStrategy clone(&sim_, cluster_.get(), 1);
  for (uint64_t key = 0; key < 100; ++key) {
    const uint64_t served0 = cluster_->node(0).gets_served();
    const uint64_t served1 = cluster_->node(1).gets_served();
    GetResult result;
    RunOneGet(clone, key, &result);
    sim_.Run();  // The slower copy lands too.
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(result.tries, 2);
    EXPECT_EQ(cluster_->node(0).gets_served(), served0 + 1) << "key " << key;
    EXPECT_EQ(cluster_->node(1).gets_served(), served1 + 1) << "key " << key;
  }
}

TEST_F(ClientFixture, HedgedCutsTailAfterDelay) {
  Build(false, 0);
  TimeoutStrategy hedged(&sim_, cluster_.get(), 1, TimeoutStrategy::Options::Hedged(Millis(15)));
  sim_.RunUntil(Millis(100));
  GetResult result;
  const DurationNs latency = RunOneGet(hedged, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_GT(latency, Millis(15));  // Waited for the hedge to fire...
  EXPECT_LT(latency, Millis(45));  // ...then the clean replica answered.
  EXPECT_GT(hedged.timeouts_fired(), 0u);  // The hedges sent.
}

TEST_F(ClientFixture, MittosFailsOverInstantly) {
  Build(/*mitt_enabled=*/true, /*noisy_node=*/0);
  MittosStrategy::Options opt;
  opt.deadline = Millis(15);
  MittosStrategy mittos(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  GetResult result;
  const DurationNs latency = RunOneGet(mittos, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(result.tries, 2);
  // No wait: EBUSY + one extra hop, then a normal read on a clean node.
  EXPECT_LT(latency, Millis(15));
  EXPECT_GT(mittos.ebusy_failovers(), 0u);
}

TEST_F(ClientFixture, MittosLastTryDisablesDeadline) {
  // All three replicas busy: the third try must not return EBUSY.
  cluster::Cluster::Options opt;
  opt.num_nodes = 3;
  opt.node.num_keys = 1 << 18;
  opt.node.os.backend = os::BackendKind::kDiskCfq;
  opt.node.os.mitt_enabled = true;
  cluster_ = std::make_unique<cluster::Cluster>(&engine_, opt);
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors;
  for (int node = 0; node < 3; ++node) {
    kv::StorageNode& n = cluster_->node(node);
    const int64_t size = 100LL << 30;
    const uint64_t file = n.os().CreateFile(size);
    noise::IoNoiseInjector::Options nopt;
    injectors.push_back(std::make_unique<noise::IoNoiseInjector>(
        &sim_, &n.os(), file, size,
        std::vector<noise::NoiseEpisode>{{0, Seconds(30), 3}}, nopt,
        static_cast<uint64_t>(node) + 7));
    injectors.back()->Start();
  }
  MittosStrategy::Options mopt;
  mopt.deadline = Millis(10);
  MittosStrategy mittos(&sim_, cluster_.get(), 1, mopt);
  sim_.RunUntil(Millis(100));
  GetResult result;
  RunOneGet(mittos, 5, &result);
  EXPECT_TRUE(result.status.ok());  // Waited on the 3rd replica, no error.
  EXPECT_EQ(result.tries, 3);
}

TEST_F(ClientFixture, SnitchLearnsPersistentSlowNode) {
  Build(false, 0);
  SnitchStrategy::Options opt;
  opt.update_interval = Millis(50);
  SnitchStrategy snitch(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  const uint64_t key = KeyWithPrimary(0);
  // Feed the snitch some observations of the noisy node.
  for (int i = 0; i < 8; ++i) {
    RunOneGet(snitch, key + static_cast<uint64_t>(i) * 3);
  }
  // After learning, latencies should be low (routes around node 0, which
  // stays noisy the whole time).
  DurationNs total = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    total += RunOneGet(snitch, key + static_cast<uint64_t>(100 + i) * 3);
  }
  EXPECT_LT(total / n, Millis(20));
}

TEST_F(ClientFixture, C3AvoidsSlowReplicaEventually) {
  Build(false, 0);
  C3Strategy c3(&sim_, cluster_.get(), 1);
  sim_.RunUntil(Millis(100));
  const uint64_t key = KeyWithPrimary(0);
  for (int i = 0; i < 8; ++i) {
    RunOneGet(c3, key + static_cast<uint64_t>(i) * 3);
  }
  DurationNs total = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    total += RunOneGet(c3, key + static_cast<uint64_t>(100 + i) * 3);
  }
  EXPECT_LT(total / n, Millis(20));
}

TEST_F(ClientFixture, MittosWaitHintPicksLeastBusyWhenAllReject) {
  // All three replicas busy, but with different intensities: the informed
  // last try must go to the least-busy one.
  cluster::Cluster::Options opt;
  opt.num_nodes = 3;
  opt.node.num_keys = 1 << 18;
  opt.node.os.backend = os::BackendKind::kDiskCfq;
  opt.node.os.mitt_enabled = true;
  cluster_ = std::make_unique<cluster::Cluster>(&engine_, opt);
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors;
  for (int node = 0; node < 3; ++node) {
    kv::StorageNode& n = cluster_->node(node);
    const int64_t size = 100LL << 30;
    const uint64_t file = n.os().CreateFile(size);
    noise::IoNoiseInjector::Options nopt;
    injectors.push_back(std::make_unique<noise::IoNoiseInjector>(
        &sim_, &n.os(), file, size,
        std::vector<noise::NoiseEpisode>{{0, Seconds(30), node == 1 ? 1 : 4}}, nopt,
        static_cast<uint64_t>(node) + 7));
    injectors.back()->Start();
  }
  MittosStrategy::Options mopt;
  mopt.preset = MittosPreset::kWait;
  mopt.deadline = Millis(8);
  MittosStrategy mittos(&sim_, cluster_.get(), 1, mopt);
  sim_.RunUntil(Millis(150));
  GetResult result;
  const DurationNs latency = RunOneGet(mittos, 5, &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.tries, 4);  // 3 rejections + informed last try.
  EXPECT_GE(mittos.unbounded_tries(), 1u);
  // Node 1 (lightest noise) should serve the last try well below the heavy
  // nodes' queue delays.
  EXPECT_LT(latency, Millis(120));
}

TEST_F(ClientFixture, MittosWaitBehavesLikeMittosWhenOneReplicaClean) {
  Build(/*mitt_enabled=*/true, /*noisy_node=*/0);
  MittosStrategy::Options opt;
  opt.preset = MittosPreset::kWait;
  opt.deadline = Millis(15);
  MittosStrategy mittos(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  GetResult result;
  const DurationNs latency = RunOneGet(mittos, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  EXPECT_LT(latency, Millis(15));
  EXPECT_EQ(mittos.unbounded_tries(), 0u);  // Never needed the 4th try.
}

}  // namespace
}  // namespace mitt::client
