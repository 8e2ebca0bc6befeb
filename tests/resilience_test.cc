// src/resilience/ tests: deadline budgets (the underflow audit), retry
// governance, the admission gate, the replica-health circuit breaker, and the
// end-to-end resilient client / ring behaviours the subsystem exists for —
// instant failover stays instant, the all-busy world completes without
// deadline-disabled sends, and everything is bit-identical across worker
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <tuple>
#include <vector>

#include "src/client/adaptive.h"
#include "src/client/clone.h"
#include "src/client/mittos_client.h"
#include "src/client/timeout.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/harness/scenario_runner.h"
#include "src/lsm/lsm_node.h"
#include "src/noise/noise_injector.h"
#include "src/obs/export.h"
#include "src/resilience/admission_gate.h"
#include "src/resilience/deadline_budget.h"
#include "src/resilience/replica_health.h"
#include "src/resilience/retry_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace mitt {
namespace {

// ---------------------------------------------------------- DeadlineBudget

TEST(DeadlineBudgetTest, DeductsElapsedAndClampsAtZero) {
  resilience::DeadlineBudget budget(Millis(10), /*start=*/Millis(5));
  EXPECT_EQ(budget.Remaining(Millis(5)), Millis(10));
  EXPECT_EQ(budget.Remaining(Millis(9)), Millis(6));
  EXPECT_FALSE(budget.Exhausted(Millis(9)));
  // At and past the SLO edge: clamped to 0, never negative — a negative
  // remaining would alias into sched::kNoDeadline territory.
  EXPECT_EQ(budget.Remaining(Millis(15)), 0);
  EXPECT_EQ(budget.Remaining(Millis(500)), 0);
  EXPECT_TRUE(budget.Exhausted(Millis(15)));
  EXPECT_EQ(budget.Elapsed(Millis(9)), Millis(4));
}

TEST(DeadlineBudgetTest, UnlimitedPassesNoDeadlineThrough) {
  resilience::DeadlineBudget budget(sched::kNoDeadline, 0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_EQ(budget.Remaining(Seconds(100)), sched::kNoDeadline);
  EXPECT_FALSE(budget.Exhausted(Seconds(100)));
}

TEST(DeadlineBudgetTest, ClampDeadlineZeroesUnderflowButKeepsNoDeadline) {
  // The audit's core invariant: hop arithmetic that underflows must read as
  // "no time left" (0), never as "no deadline" (-1).
  EXPECT_EQ(resilience::ClampDeadline(sched::kNoDeadline), sched::kNoDeadline);
  EXPECT_EQ(resilience::ClampDeadline(-2), 0);
  EXPECT_EQ(resilience::ClampDeadline(-Millis(3)), 0);
  EXPECT_EQ(resilience::ClampDeadline(0), 0);
  EXPECT_EQ(resilience::ClampDeadline(Millis(7)), Millis(7));
}

// ------------------------------------------------------------- RetryBudget

TEST(RetryBudgetTest, DeniesWhenDryAndRefillsFractionallyOnSuccess) {
  resilience::RetryBudgetOptions opt;
  opt.initial = 2.0;
  opt.burst = 3.0;
  opt.refill_per_success = 0.5;
  resilience::RetryBudget budget(opt);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // Dry: a retry storm stops here.
  EXPECT_EQ(budget.denied(), 1u);
  budget.OnSuccess();
  EXPECT_FALSE(budget.TryAcquire());  // 0.5 tokens: still below one retry.
  budget.OnSuccess();
  EXPECT_TRUE(budget.TryAcquire());  // 1.0 accrued.
  for (int i = 0; i < 100; ++i) {
    budget.OnSuccess();
  }
  EXPECT_DOUBLE_EQ(budget.tokens(), opt.burst);  // Capped at burst.
  EXPECT_EQ(budget.granted(), 3u);
}

TEST(BackoffTest, DecorrelatedJitterIsDeterministicAndBounded) {
  resilience::BackoffOptions opt;
  opt.base = Micros(500);
  opt.cap = Millis(20);
  resilience::DecorrelatedJitterBackoff a(opt, 7);
  resilience::DecorrelatedJitterBackoff b(opt, 7);
  DurationNs prev = opt.base;
  for (int i = 0; i < 50; ++i) {
    const DurationNs next = a.Next();
    EXPECT_EQ(next, b.Next());  // Same seed, same ladder.
    EXPECT_GE(next, opt.base);
    EXPECT_LE(next, std::min<DurationNs>(opt.cap, std::max(opt.base, prev * 3)));
    prev = next;
  }
  a.Reset();
  const DurationNs after_reset = a.Next();
  EXPECT_LE(after_reset, opt.base * 3);  // Ladder restarted from base.
}

// ----------------------------------------------------------- AdmissionGate

TEST(AdmissionGateTest, ShedsAtCapacityAndReopensOnRelease) {
  resilience::AdmissionGate gate(/*capacity=*/2);
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_FALSE(gate.TryAdmit());  // Bounded: the convoy cannot grow.
  EXPECT_EQ(gate.sheds(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_EQ(gate.admits(), 3u);
  EXPECT_EQ(gate.inflight(), 2);
}

// ----------------------------------------------------- ReplicaHealthTracker

class BreakerTest : public ::testing::Test {
 protected:
  resilience::ReplicaHealthOptions DefaultOptions() {
    resilience::ReplicaHealthOptions opt;
    opt.min_samples = 4;
    opt.open_base = Millis(40);
    opt.open_jitter = 0.0;  // Exact windows for the test.
    return opt;
  }

  sim::Simulator sim_;
};

TEST_F(BreakerTest, EbusyStormOpensAndProbeCloses) {
  resilience::ReplicaHealthTracker tracker(&sim_, 3, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(/*replica=*/0, Micros(300), /*ebusy=*/true);
  }
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.breaker_opens(), 1u);
  EXPECT_EQ(tracker.state(1), resilience::BreakerState::kClosed);

  // Open pushes the replica to the back of the failover walk.
  std::vector<int> order = {0, 1, 2};
  tracker.OrderReplicas(order);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));

  // After the open window: half-open, exactly one probe slot.
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  EXPECT_TRUE(tracker.AcquireProbe(0));
  EXPECT_FALSE(tracker.AcquireProbe(0));  // One outstanding probe max.
  EXPECT_EQ(tracker.probes_sent(), 1u);

  // Probe succeeds: closed, back at the front of the walk.
  tracker.OnReply(0, Micros(300), /*ebusy=*/false);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kClosed);
  order = {0, 1, 2};
  tracker.OrderReplicas(order);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(BreakerTest, OrderReplicasIsStableAndLogsExpiriesInWalkOrder) {
  using resilience::BreakerState;
  using resilience::BreakerTransition;
  resilience::ReplicaHealthOptions opt = DefaultOptions();
  opt.record_transitions = true;
  resilience::ReplicaHealthTracker tracker(&sim_, 5, opt, 5);
  auto trip = [&tracker](int replica) {
    for (int i = 0; i < 8; ++i) {
      tracker.OnReply(replica, Micros(300), /*ebusy=*/true);
    }
  };
  auto advance = [this](DurationNs d) {
    sim_.Schedule(d, [] {});
    sim_.Run();
  };
  trip(2);
  advance(Millis(41));
  ASSERT_EQ(tracker.state(2), BreakerState::kHalfOpen);
  trip(0);  // 0 and 4 open together; their windows expire at 81 ms.
  trip(4);
  advance(Millis(41));
  trip(3);  // Still open when the walk is ordered.
  const size_t logged = tracker.transitions().size();
  ASSERT_EQ(logged, 5u);

  // Walk: 4 and 0 just expired (untouched since), 1 closed, 2 half-open,
  // 3 open.
  std::vector<int> order = {4, 1, 2, 0, 3};
  tracker.OrderReplicas(order);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 0, 3}));
  // The expiries are logged once each, in walk order.
  const std::vector<BreakerTransition> added(tracker.transitions().begin() + logged,
                                             tracker.transitions().end());
  EXPECT_EQ(added, (std::vector<BreakerTransition>{
                       {4, BreakerState::kOpen, BreakerState::kHalfOpen, Millis(82)},
                       {0, BreakerState::kOpen, BreakerState::kHalfOpen, Millis(82)}}));
  // Ordering again is a no-op: states are settled, nothing more is logged.
  tracker.OrderReplicas(order);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 0, 3}));
  EXPECT_EQ(tracker.transitions().size(), logged + 2);
}

TEST_F(BreakerTest, FailedProbeReopensWithEscalatedWindow) {
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(0, Micros(300), true);
  }
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  ASSERT_TRUE(tracker.AcquireProbe(0));
  tracker.OnReply(0, Micros(300), true);  // Probe rejected: still sick.
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.breaker_opens(), 2u);
  // Escalated: 80 ms window now, so +41 ms is still open.
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
}

TEST_F(BreakerTest, ConsecutiveTimeoutsOpenRegardlessOfSamples) {
  // Timeouts (pauses, partitions, drop storms) must open the breaker even
  // with zero reply samples — the OS-side predictor cannot see them.
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  tracker.OnTimeout(0);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kClosed);
  tracker.OnTimeout(0);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
}

TEST_F(BreakerTest, FailSlowLatencyOpensAgainstClusterBest) {
  resilience::ReplicaHealthOptions opt = DefaultOptions();
  opt.latency_slow_factor = 4.0;
  opt.latency_floor = Millis(2);
  resilience::ReplicaHealthTracker tracker(&sim_, 2, opt, 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(1, Millis(1), false);   // Healthy baseline.
    tracker.OnReply(0, Millis(30), false);  // Fail-slow but still answering.
  }
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.state(1), resilience::BreakerState::kClosed);
}

#ifndef MITT_OBS_DISABLED
TEST_F(BreakerTest, TransitionsRecordResilienceSpans) {
  obs::Tracer tracer(64);
  sim_.set_tracer(&tracer);
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(0, Micros(300), true);
  }
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  ASSERT_TRUE(tracker.AcquireProbe(0));
  tracker.OnReply(0, Micros(300), false);

  int opens = 0;
  int half_opens = 0;
  int closes = 0;
  for (const obs::SpanRecord& s : tracer.OrderedSpans()) {
    opens += s.kind == obs::SpanKind::kBreakerOpen && s.node == 0;
    half_opens += s.kind == obs::SpanKind::kBreakerHalfOpen && s.node == 0;
    closes += s.kind == obs::SpanKind::kBreakerClose && s.node == 0;
  }
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(half_opens, 1);
  EXPECT_EQ(closes, 1);
}
#endif  // MITT_OBS_DISABLED

// ------------------------------------------------- Resilient client, e2e

// 3-node DocStore cluster; optionally flood `noisy_nodes` with continuous
// contention (the ClientFixture pattern from client_test.cc).
class ResilientClientTest : public ::testing::Test {
 protected:
  void Build(const std::vector<int>& noisy_nodes,
             cluster::NetworkParams net = cluster::NetworkParams{}, int intensity = 3) {
    cluster::Cluster::Options opt;
    opt.num_nodes = 3;
    opt.node.num_keys = 1 << 18;
    opt.node.os.backend = os::BackendKind::kDiskCfq;
    opt.node.os.mitt_enabled = true;
    opt.network = net;
    cluster_ = std::make_unique<cluster::Cluster>(&engine_, opt);
    for (const int node : noisy_nodes) {
      kv::StorageNode& n = cluster_->node(node);
      const int64_t size = 100LL << 30;
      const uint64_t file = n.os().CreateFile(size);
      noise::IoNoiseInjector::Options nopt;
      nopt.streams_per_intensity = 2;
      injectors_.push_back(std::make_unique<noise::IoNoiseInjector>(
          &sim_, &n.os(), file, size,
          std::vector<noise::NoiseEpisode>{{0, Seconds(30), intensity}}, nopt,
          static_cast<uint64_t>(node) + 7));
      injectors_.back()->Start();
    }
  }

  uint64_t KeyWithPrimary(int node, int skip = 0) {
    for (uint64_t key = 0;; ++key) {
      if (cluster_->ReplicasOf(key)[0] == node && skip-- == 0) {
        return key;
      }
    }
  }

  DurationNs RunOneGet(client::GetStrategy& strategy, uint64_t key,
                       client::GetResult* out = nullptr) {
    const TimeNs start = sim_.Now();
    TimeNs done = -1;
    client::GetResult result;
    strategy.Get(key, [&](const client::GetResult& r) {
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
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors_;
};

TEST_F(ResilientClientTest, FailsOverInstantlyOffNoisyPrimary) {
  Build({0});
  client::MittosStrategy::Options opt;
  opt.preset = client::MittosPreset::kResilient;
  opt.deadline = Millis(15);
  client::MittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  const DurationNs latency = RunOneGet(res, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  // The paper's property survives the resilience layer: EBUSY failover is
  // instant, well inside the SLO.
  EXPECT_LT(latency, Millis(15));
  EXPECT_GT(res.ebusy_failovers(), 0u);
  EXPECT_EQ(res.degraded_gets(), 0u);  // A clean replica existed.
}

TEST_F(ResilientClientTest, AllBusyCompletesViaBoundedDegradedPath) {
  Build({0, 1, 2});
  client::MittosStrategy::Options opt;
  opt.preset = client::MittosPreset::kResilient;
  opt.deadline = Millis(10);
  client::MittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  RunOneGet(res, 5, &result);
  // Graceful degradation: the user still gets an answer...
  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(res.degraded_gets(), 1u);
  // ...and no hop ever carried a disabled or negative deadline. The largest
  // deadline on the wire is bounded by the server-side escalation cap.
  EXPECT_GE(res.max_sent_deadline(), 0);
  EXPECT_LE(res.max_sent_deadline(), Seconds(2));
}

TEST_F(ResilientClientTest, BreakerRoutesWalkAwayFromPersistentlySickPrimary) {
  Build({0}, cluster::NetworkParams{}, /*intensity=*/4);
  client::MittosStrategy::Options opt;
  opt.preset = client::MittosPreset::kResilient;
  opt.deadline = Millis(15);
  opt.health.min_samples = 4;
  opt.health.open_base = Millis(200);  // Keep the breaker open through the test.
  client::MittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  // Every key's walk starts on the sick node, so the EBUSY EWMA sees it.
  for (int i = 0; i < 12; ++i) {
    RunOneGet(res, KeyWithPrimary(0, i));
  }
  EXPECT_GE(res.health().breaker_opens(), 1u);
  // With the breaker open the walk starts on a healthy replica: no more
  // wasted round trips to node 0.
  const uint64_t failovers_before = res.ebusy_failovers();
  for (int i = 0; i < 4; ++i) {
    RunOneGet(res, KeyWithPrimary(0, 12 + i));
  }
  EXPECT_EQ(res.ebusy_failovers(), failovers_before);
}

TEST_F(ResilientClientTest, SlowLinkNeverSendsNegativeOrDisabledDeadline) {
  // Regression for the deadline-underflow audit: with an 8 ms one-way link
  // and a 10 ms SLO, the budget is gone before the second hop can even be
  // computed — the remaining deadline math underflows. The client must send
  // 0 ("no time left"), never a negative value aliasing sched::kNoDeadline.
  cluster::NetworkParams net;
  net.one_way = Millis(8);
  net.jitter = 0;
  Build({0}, net);
  client::MittosStrategy::Options opt;
  opt.preset = client::MittosPreset::kResilient;
  opt.deadline = Millis(10);
  client::MittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  RunOneGet(res, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());  // Degraded path still answers.
  EXPECT_GE(res.max_sent_deadline(), 0);
  EXPECT_LE(res.max_sent_deadline(), Seconds(2));
  // The budget observed the burned RTT: either it exhausted outright or the
  // degraded path took over; both are bounded outcomes.
  EXPECT_GE(res.degraded_gets() + res.deadline_exhausted(), 1u);
}

TEST(ResilientTenantTest, RoutesViaPlacementGroupAndSendsClassSlo) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster::Options copt;
  copt.num_nodes = 6;
  copt.node.num_keys = 1 << 16;
  copt.node.os.backend = os::BackendKind::kDiskCfq;
  copt.node.os.mitt_enabled = true;
  copt.node.tenant_slots = 1;
  cluster::Cluster cluster(&engine, copt);
  tenant::PlacementMap placement(/*num_tenants=*/1, /*replication=*/3);
  tenant::ReplicaGroup group;
  group.size = 3;
  group.node[0] = 3;
  group.node[1] = 4;
  group.node[2] = 5;
  placement.Assign(0, group);

  client::MittosStrategy::Options opt;
  opt.preset = client::MittosPreset::kResilient;
  opt.deadline = Millis(13);
  client::MittosStrategy res(&sim, &cluster, 1, opt);
  res.set_placement(&placement);
  const client::GetContext ctx{/*tenant=*/0, /*deadline=*/Millis(40)};
  // One get at a time on a quiet cluster: no EBUSY, no degraded hop. The
  // ring primaries of these keys cover every node.
  constexpr int kGets = 24;
  for (uint64_t key = 0; key < kGets; ++key) {
    bool ok = false;
    bool done = false;
    res.Get(key, ctx, [&](const client::GetResult& r) {
      ok = r.status.ok();
      done = true;
    });
    sim.RunUntilPredicate([&done] { return done; });
    EXPECT_TRUE(ok) << "key " << key;
  }

  uint64_t group_gets = 0;
  for (int node = 0; node < copt.num_nodes; ++node) {
    const uint64_t served = cluster.node(node).gets_served();
    if (node < 3) {
      EXPECT_EQ(served, 0u) << "node " << node << " is outside the tenant's group";
    } else {
      // Every primary-walk hop carries the tenant, so the per-tenant
      // counters see it.
      EXPECT_EQ(cluster.node(node).tenant_gets_data()[0], served);
      group_gets += served;
    }
  }
  EXPECT_EQ(group_gets, static_cast<uint64_t>(kGets));
  // The class SLO, not the strategy deadline, anchors the budget.
  EXPECT_EQ(res.max_sent_deadline(), Millis(40));
}

// Queues 40 bypass-cache 1 MB reads on `os`'s disk, so MittCFQ rejects a get
// that carries a 12 ms deadline.
void SaturateDisk(os::Os& os) {
  const uint64_t noise_file = os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    os.ReadWithWaitHint(args, nullptr);
  }
}

// ------------------------------------- Degraded server path, both node types

// kv::StorageNode's degraded read on a DocStore node and on an LSM node: the
// shed gate and the escalating, capped deadlines are one code path.
enum class NodeKind { kDocStore, kLsm };

void PrintTo(NodeKind kind, std::ostream* os) {
  *os << (kind == NodeKind::kDocStore ? "DocStore" : "Lsm");
}

class DegradedPathTest : public ::testing::TestWithParam<NodeKind> {
 protected:
  std::unique_ptr<kv::StorageNode> MakeNode() {
    if (GetParam() == NodeKind::kDocStore) {
      kv::DocStoreNode::Options opt;
      opt.num_keys = 1 << 16;
      opt.os.backend = os::BackendKind::kDiskCfq;
      opt.os.mitt_enabled = true;
      return std::make_unique<kv::DocStoreNode>(&sim_, 0, opt);
    }
    kv::StorageNode::Options opt;
    opt.num_keys = 20000;
    opt.os.backend = os::BackendKind::kDiskCfq;
    opt.os.mitt_enabled = true;
    return std::make_unique<lsm::LsmNode>(&sim_, 0, opt);
  }

  sim::Simulator sim_;
};

TEST_P(DegradedPathTest, ShedsOverCapacityAndEscalatesUnderTheCap) {
  std::unique_ptr<kv::StorageNode> node = MakeNode();
  SaturateDisk(node->os());
  constexpr int kGets = kv::StorageNode::kDegradedMaxInflight + 2;
  constexpr DurationNs kFirstDeadline = Millis(12);
  std::vector<int> replies(kGets, 0);
  int replied = 0;
  int unavailable = 0;
  for (int i = 0; i < kGets; ++i) {
    node->HandleDegradedGet(static_cast<uint64_t>(i) * 997, kFirstDeadline,
                            [&, i](Status s, DurationNs) {
                              ++replies[static_cast<size_t>(i)];
                              ++replied;
                              unavailable += s.code() == StatusCode::kUnavailable ? 1 : 0;
                            });
  }
  sim_.RunUntilPredicate([&] { return replied == kGets; });
  sim_.Run();  // Drain: no request may reply twice.

  EXPECT_EQ(node->degraded_admits(), static_cast<uint64_t>(kv::StorageNode::kDegradedMaxInflight));
  EXPECT_EQ(node->degraded_sheds(), 2u);
  EXPECT_EQ(unavailable, 2);
  for (int i = 0; i < kGets; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(i)], 1) << "get " << i;
  }
  EXPECT_GT(node->degraded_max_deadline(), kFirstDeadline);  // Escalated...
  EXPECT_LE(node->degraded_max_deadline(), kv::StorageNode::kDegradedDeadlineCap);  // ...bounded.
}

INSTANTIATE_TEST_SUITE_P(NodeKinds, DegradedPathTest,
                         ::testing::Values(NodeKind::kDocStore, NodeKind::kLsm));

// ------------------------------------------------- LSM cluster, all-EBUSY

// A cluster of LSM nodes under the MittOS client: kMittos (the paper's walk)
// or kResilient.
class RingResilienceTest : public ::testing::Test {
 protected:
  void Build(bool resilience_enabled) {
    cluster::Cluster::Options copt;
    copt.num_nodes = 3;
    copt.node.access = kv::AccessPath::kLsm;
    copt.node.num_keys = 20000;
    copt.node.os.backend = os::BackendKind::kDiskCfq;
    copt.node.os.mitt_enabled = true;
    ring_ = std::make_unique<cluster::Cluster>(&engine_, copt);
    client::MittosStrategy::Options mopt;
    mopt.preset =
        resilience_enabled ? client::MittosPreset::kResilient : client::MittosPreset::kMittos;
    mopt.deadline = Millis(12);
    mittos_ = std::make_unique<client::MittosStrategy>(&sim_, ring_.get(), 1, mopt);
  }

  void SaturateAllNodes() {
    for (int i = 0; i < ring_->num_nodes(); ++i) {
      SaturateDisk(ring_->node(i).os());
    }
  }

  Status RunOneGet(uint64_t key) {
    Status status = Status::Internal();
    TimeNs done = -1;
    mittos_->Get(key, [&](const client::GetResult& r) {
      status = r.status;
      done = sim_.Now();
    });
    sim_.RunUntilPredicate([&] { return done >= 0; });
    return status;
  }

  sim::ShardedEngine engine_{{}};
  sim::Simulator& sim_ = *engine_.shard(0);
  std::unique_ptr<cluster::Cluster> ring_;
  std::unique_ptr<client::MittosStrategy> mittos_;
};

TEST_F(RingResilienceTest, NaiveAllEbusyDisablesDeadlineOnLastTry) {
  Build(/*resilience_enabled=*/false);
  SaturateAllNodes();
  const Status status = RunOneGet(123);
  EXPECT_TRUE(status.ok());  // Completes, but only by dropping the SLO.
  EXPECT_GE(mittos_->ebusy_failovers(), 2u);
  EXPECT_GE(mittos_->unbounded_tries(), 1u);  // The behaviour under audit.
}

TEST_F(RingResilienceTest, ResilientAllEbusyCompletesWithBoundedDeadlines) {
  Build(/*resilience_enabled=*/true);
  SaturateAllNodes();
  const Status status = RunOneGet(123);
  EXPECT_TRUE(status.ok());  // 0 user-visible errors in the all-busy world.
  EXPECT_EQ(mittos_->unbounded_tries(), 0u);
  EXPECT_GE(mittos_->degraded_gets(), 1u);
  EXPECT_GE(mittos_->max_sent_deadline(), 0);
  EXPECT_LE(mittos_->max_sent_deadline(), Seconds(2));
}

TEST_F(RingResilienceTest, ResilientQuietClusterStaysOnFastPath) {
  Build(true);
  const Status status = RunOneGet(123);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(mittos_->ebusy_failovers(), 0u);
  EXPECT_EQ(mittos_->degraded_gets(), 0u);
}

// ---------------------------------------------- Done-exactly-once property

// Every GetStrategy must call done exactly once per get, under EBUSY races,
// timeout/backoff races, drop-retransmit races, and the degraded path:
// ~1000 seeded get-shuffles across the strategy set, on each store.
class DoneOncePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// One store's drill: one noisy node plus lossy links (drops are modeled as
// lost-then-retransmitted, so late replies race client timers), then
// shuffled rounds of gets through every client strategy: AppTO, Hedged,
// Clone, Snitch, C3, MittOS, MittOS+wait and MittOS+res, all on the
// settle-once latch of GetStrategy's pooled record.
void DrillDoneOnce(uint64_t seed, sim::Simulator& sim, cluster::Cluster& cluster,
                   os::Os& noisy_os, int64_t num_keys) {
  Rng rng(seed);
  const int64_t size = 100LL << 30;
  const uint64_t file = noisy_os.CreateFile(size);
  noise::IoNoiseInjector::Options nopt;
  noise::IoNoiseInjector injector(&sim, &noisy_os, file, size,
                                  {noise::NoiseEpisode{0, Seconds(30), 3}}, nopt, seed + 7);
  injector.Start();
  cluster.network().SetLinkDropProbability(cluster::Network::kNoPeer,
                                         0.05 + 0.1 * rng.Uniform(0.0, 1.0));

  client::TimeoutStrategy::Options topt;
  topt.timeout = Millis(12);
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(12);
  client::MittosStrategy::Options wopt = mopt;
  wopt.preset = client::MittosPreset::kWait;
  client::MittosStrategy::Options ropt = mopt;
  ropt.preset = client::MittosPreset::kResilient;
  ropt.health.min_samples = 4;
  client::TimeoutStrategy timeout(&sim, &cluster, seed, topt);
  client::TimeoutStrategy hedged(&sim, &cluster, seed,
                                 client::TimeoutStrategy::Options::Hedged(Millis(12)));
  client::CloneStrategy clone(&sim, &cluster, seed);
  client::SnitchStrategy snitch(&sim, &cluster, seed, client::SnitchStrategy::Options{});
  client::C3Strategy c3(&sim, &cluster, seed, client::C3Strategy::Options{});
  client::MittosStrategy mittos(&sim, &cluster, seed, mopt);
  client::MittosStrategy mittos_wait(&sim, &cluster, seed, wopt);
  client::MittosStrategy resilient(&sim, &cluster, seed, ropt);
  std::vector<client::GetStrategy*> strategies = {&timeout, &hedged, &clone,       &snitch,
                                                  &c3,      &mittos, &mittos_wait, &resilient};

  sim.RunUntil(Millis(50));
  // x8 strategies x10 seeds x2 stores = 4000 gets.
  constexpr int kGetsPerStrategy = 25;
  int completed = 0;
  std::vector<int> calls;
  calls.reserve(strategies.size() * kGetsPerStrategy);
  for (int i = 0; i < kGetsPerStrategy; ++i) {
    // Shuffle strategy order per round so their events interleave differently
    // every seed.
    for (size_t s = strategies.size(); s > 1; --s) {
      std::swap(strategies[s - 1],
                strategies[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(s) - 1))]);
    }
    for (client::GetStrategy* strategy : strategies) {
      calls.push_back(0);
      int* slot = &calls.back();
      strategy->Get(rng.UniformInt(0, num_keys - 1),
                    [slot, &completed](const client::GetResult&) {
                      ++*slot;
                      ++completed;
                    });
    }
    const int expected = static_cast<int>(calls.size());
    sim.RunUntilPredicate([&] { return completed >= expected; });
  }
  sim.Run();  // Drain stragglers (late retransmits, backoff timers).

  ASSERT_EQ(calls.size(), strategies.size() * kGetsPerStrategy);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << "get " << i << " seed " << seed;
  }
}

TEST_P(DoneOncePropertyTest, EveryStrategyCallsDoneExactlyOnce) {
  const uint64_t seed = GetParam();
  constexpr int64_t kKeys = 1 << 16;
  for (const kv::AccessPath access : {kv::AccessPath::kRead, kv::AccessPath::kLsm}) {
    SCOPED_TRACE(access == kv::AccessPath::kLsm ? "LSM cluster" : "DocStore cluster");
    sim::ShardedEngine engine({});
    cluster::Cluster::Options copt;
    copt.num_nodes = 3;
    copt.node.access = access;
    copt.node.num_keys = kKeys;
    copt.node.os.backend = os::BackendKind::kDiskCfq;
    copt.node.os.mitt_enabled = true;
    copt.seed = seed;
    cluster::Cluster cluster(&engine, copt);
    DrillDoneOnce(seed, *engine.shard(0), cluster, cluster.node(static_cast<int>(seed % 3)).os(), kKeys);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoneOncePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------------- Scorecard export

TEST(ScorecardJsonTest, HostileScenarioNamesAreEscaped) {
  harness::StrategyScore s;
  s.scenario = "fail\"slow\\disk\n";
  s.strategy = "Mitt\"OS";
  const std::string json = harness::ScorecardJson({s}, Millis(13));
  EXPECT_TRUE(obs::ValidateJsonSyntax(json));
  EXPECT_NE(json.find("fail\\\"slow\\\\disk\\n"), std::string::npos);
}

// ------------------------------------------------- Scorecard determinism

TEST(ResilienceDeterminismTest, ScorecardBitIdenticalAcrossWorkerCounts) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 300;
  opt.warmup_requests = 30;
  opt.pin_primary_node = 0;
  opt.noise = harness::NoiseKind::kContinuous;
  opt.deadline = Millis(15);
  opt.seed = 99;
  fault::FaultPlanBuilder b;
  b.FailSlowDisk(/*node=*/0, Millis(20), Millis(400), 6.0);
  opt.fault_plan = b.Build();

  std::vector<harness::Trial> trials;
  for (const auto kind : {harness::StrategyKind::kMittos, harness::StrategyKind::kMittosResilient}) {
    trials.push_back({opt, kind, ""});
  }
  const auto serial = harness::RunTrialsParallel(trials, /*workers=*/1);
  const auto fanned = harness::RunTrialsParallel(trials, /*workers=*/4);

  ASSERT_EQ(serial.size(), fanned.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const harness::RunResult& a = serial[i];
    const harness::RunResult& f = fanned[i];
    EXPECT_EQ(a.get_latencies.samples(), f.get_latencies.samples()) << a.name;
    EXPECT_EQ(a.ebusy_failovers, f.ebusy_failovers) << a.name;
    EXPECT_EQ(a.degraded_gets, f.degraded_gets) << a.name;
    EXPECT_EQ(a.degraded_sheds, f.degraded_sheds) << a.name;
    EXPECT_EQ(a.deadline_exhausted, f.deadline_exhausted) << a.name;
    EXPECT_EQ(a.retry_denied, f.retry_denied) << a.name;
    EXPECT_EQ(a.max_sent_deadline, f.max_sent_deadline) << a.name;
    EXPECT_EQ(a.user_errors, f.user_errors) << a.name;
  }
}

}  // namespace
}  // namespace mitt
