// mitt::fault tests: plan construction and chaos generation (seeded,
// replayable), the injector's application/skip/logging behavior, the
// CpuPool and Network fault hooks it drives, and the subsystem's core
// promise — a fault-laden scenario is bit-identical at any worker count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cpu_pool.h"
#include "src/cluster/network.h"
#include "src/fault/fault_plan.h"
#include "src/fault/plan_serde.h"
#include "src/fault/injector.h"
#include "src/harness/experiment.h"
#include "src/lsm/lsm_node.h"
#include "src/obs/trace.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace mitt::fault {
namespace {

auto EpisodeKey(const FaultEpisode& e) {
  return std::make_tuple(e.kind, e.node, e.start, e.duration, e.severity, e.chip);
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, BuildSortsEpisodesIntoDeliveryOrder) {
  FaultPlanBuilder b;
  b.NodePause(/*node=*/2, /*start=*/Millis(50), /*duration=*/Millis(10));
  b.FailSlowDisk(/*node=*/0, /*start=*/Millis(10), /*duration=*/Millis(30), 4.0);
  b.NetworkDegrade(/*node=*/1, /*start=*/Millis(10), /*duration=*/Millis(5), 8.0);
  const FaultPlan plan = b.Build();
  ASSERT_EQ(plan.size(), 3u);
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.episodes()[i - 1].start, plan.episodes()[i].start);
  }
  EXPECT_EQ(plan.episodes().back().kind, FaultKind::kNodePause);
}

TEST(FaultPlanTest, RepeatEpisodesIsSeededAndNonOverlapping) {
  const auto make = [](uint64_t seed) {
    FaultPlanBuilder b;
    b.RepeatEpisodes(FaultKind::kNodePause, /*node=*/0, /*horizon=*/Seconds(30),
                     /*mean_gap=*/Millis(500), /*min_on=*/Millis(50), /*max_on=*/Millis(200),
                     /*severity=*/1.0, seed);
    return b.Build();
  };
  const FaultPlan a = make(7);
  const FaultPlan b = make(7);
  const FaultPlan c = make(8);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 3u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(EpisodeKey(a.episodes()[i]), EpisodeKey(b.episodes()[i]));
    EXPECT_GE(a.episodes()[i].duration, Millis(50));
    EXPECT_LE(a.episodes()[i].duration, Millis(200));
    EXPECT_LT(a.episodes()[i].start, Seconds(30));
    if (i > 0) {
      // Quiet gap between consecutive episodes of one (kind, node) stream.
      EXPECT_GE(a.episodes()[i].start, a.episodes()[i - 1].end());
    }
  }
  // A different seed must produce a different schedule.
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = EpisodeKey(a.episodes()[i]) != EpisodeKey(c.episodes()[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, ChaosPlanDeterministicAndRespectsToggles) {
  ChaosOptions opt;
  opt.fail_slow_disk = true;
  opt.node_pause = true;
  opt.network_degrade = false;
  opt.node_crash = false;
  opt.ssd_read_retry = false;
  opt.network_partition = false;
  opt.mean_gap = Seconds(2);
  const FaultPlan a = GenerateChaosPlan(opt, /*num_nodes=*/4, /*horizon=*/Seconds(20), 11);
  const FaultPlan b = GenerateChaosPlan(opt, 4, Seconds(20), 11);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(EpisodeKey(a.episodes()[i]), EpisodeKey(b.episodes()[i]));
    const FaultKind kind = a.episodes()[i].kind;
    EXPECT_TRUE(kind == FaultKind::kFailSlowDisk || kind == FaultKind::kNodePause)
        << FaultKindName(kind);
    EXPECT_GE(a.episodes()[i].node, 0);
    EXPECT_LT(a.episodes()[i].node, 4);
    EXPECT_LT(a.episodes()[i].start, Seconds(20));
  }
}

// Property sweep over seeds: every GenerateChaosPlan episode lies entirely
// within [0, horizon) with a severity legal for its kind, and distinct seeds
// produce distinct schedules.
TEST(FaultPlanPropertyTest, ChaosPlanEpisodesStayInHorizonWithLegalSeverity) {
  ChaosOptions opt;
  opt.fail_slow_disk = true;
  opt.network_degrade = true;
  opt.network_drop = true;  // Exercise the drop-probability severity branch.
  opt.network_partition = true;
  opt.node_pause = true;
  opt.node_crash = true;
  opt.mean_gap = Seconds(1);
  opt.blast_radius = 1.0;
  const TimeNs horizon = Seconds(10);
  std::string last;
  size_t distinct = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = GenerateChaosPlan(opt, /*num_nodes=*/3, horizon, seed);
    ASSERT_GT(plan.size(), 0u) << "seed " << seed;
    for (const FaultEpisode& e : plan.episodes()) {
      EXPECT_GE(e.start, 0);
      EXPECT_LE(e.end(), horizon) << FaultKindName(e.kind) << " seed " << seed;
      switch (e.kind) {
        case FaultKind::kNetworkDrop:
          EXPECT_GT(e.severity, 0.0);
          EXPECT_LE(e.severity, 1.0);
          break;
        case FaultKind::kFailSlowDisk:
        case FaultKind::kSsdReadRetry:
        case FaultKind::kNetworkDegrade:
          EXPECT_GE(e.severity, 1.0);
          break;
        default:
          break;
      }
    }
    std::string sig;
    for (const FaultEpisode& e : plan.episodes()) {
      sig += EpisodeToLine(e) + "\n";
    }
    distinct += sig != last;
    last = std::move(sig);
  }
  EXPECT_EQ(distinct, 20u);  // Every seed produced a fresh schedule.
}

TEST(FaultPlanPropertyTest, RepeatEpisodesTruncatesAtHorizonAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlanBuilder b;
    b.RepeatEpisodes(FaultKind::kFailSlowDisk, /*node=*/1, /*horizon=*/Millis(700),
                     /*mean_gap=*/Millis(80), /*min_on=*/Millis(40), /*max_on=*/Millis(300),
                     /*severity=*/6.0, seed);
    const FaultPlan plan = b.Build();
    for (const FaultEpisode& e : plan.episodes()) {
      EXPECT_GE(e.start, 0);
      EXPECT_LE(e.end(), Millis(700)) << "seed " << seed;
      EXPECT_EQ(e.severity, 6.0);
    }
  }
}

// -------------------------------------------------------- Same-target overlaps

TEST(FaultPlanOverlapTest, SameTargetIntersectingEpisodesOverlap) {
  const FaultEpisode a{FaultKind::kFailSlowDisk, /*node=*/0, Millis(10), Millis(30), 4.0, -1};
  const FaultEpisode b{FaultKind::kFailSlowDisk, /*node=*/0, Millis(20), Millis(30), 8.0, -1};
  const FaultEpisode other_node{FaultKind::kFailSlowDisk, /*node=*/1, Millis(20), Millis(30),
                                8.0, -1};
  EXPECT_TRUE(fault::EpisodesOverlap(a, b));
  EXPECT_TRUE(fault::EpisodesOverlap(b, a));
  EXPECT_FALSE(fault::EpisodesOverlap(a, other_node));  // Node 1 does not collide.
  EXPECT_FALSE(fault::EpisodesOverlap(b, other_node));
  // Build only sorts: overlapping episodes are kept as given.
  FaultPlanBuilder builder;
  builder.Add(b).Add(other_node).Add(a);
  const FaultPlan plan = builder.Build();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.episodes()[0], a);
}

TEST(FaultPlanOverlapTest, IntersectingPausesOnOneNodeOverlap) {
  const FaultEpisode first{FaultKind::kNodePause, /*node=*/2, Millis(5), Millis(20), 1.0, -1};
  const FaultEpisode second{FaultKind::kNodePause, /*node=*/2, Millis(15), Millis(20), 1.0, -1};
  EXPECT_TRUE(fault::EpisodesOverlap(first, second));
  EXPECT_TRUE(fault::EpisodesOverlap(second, first));
  FaultPlanBuilder builder;
  builder.NodePause(2, Millis(5), Millis(20)).NodePause(2, Millis(15), Millis(20));
  EXPECT_EQ(builder.Build().size(), 2u);
}

TEST(FaultPlanOverlapTest, AdjacentEpisodesDoNotOverlap) {
  const FaultEpisode first{FaultKind::kNodePause, /*node=*/0, Millis(5), Millis(10), 1.0, -1};
  // `next` begins exactly where `first` ends.
  const FaultEpisode next{FaultKind::kNodePause, /*node=*/0, Millis(15), Millis(10), 1.0, -1};
  EXPECT_FALSE(fault::EpisodesOverlap(first, next));
  EXPECT_FALSE(fault::EpisodesOverlap(next, first));
}

// ----------------------------------------------------------------- CpuPool

TEST(CpuPoolFaultTest, PauseDefersQueuedAndArrivingJobs) {
  sim::Simulator sim;
  cluster::CpuPool cpu(&sim, 1);
  std::vector<TimeNs> done;
  cpu.PauseFor(Millis(10));
  EXPECT_TRUE(cpu.paused());
  cpu.Execute(Micros(100), [&] { done.push_back(sim.Now()); });
  sim.Schedule(Millis(5), [&] { cpu.Execute(Micros(100), [&] { done.push_back(sim.Now()); }); });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Millis(10) + Micros(100));  // FIFO order survives the pause.
  EXPECT_EQ(done[1], Millis(10) + Micros(200));
  EXPECT_FALSE(cpu.paused());
  EXPECT_EQ(cpu.pauses(), 1u);
}

TEST(CpuPoolFaultTest, OverlappingPausesExtendToFurthestEnd) {
  sim::Simulator sim;
  cluster::CpuPool cpu(&sim, 1);
  TimeNs done = -1;
  cpu.PauseFor(Millis(10));
  sim.Schedule(Millis(4), [&] { cpu.PauseFor(Millis(10)); });  // Until 14ms.
  sim.Schedule(Millis(6), [&] { cpu.PauseFor(Millis(1)); });   // Shorter: no-op.
  cpu.Execute(0, [&] { done = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done, Millis(14));
  EXPECT_EQ(cpu.pauses(), 2u);  // The subsumed pause does not count.
}

TEST(CpuPoolFaultTest, InFlightBurstFinishesDuringPause) {
  sim::Simulator sim;
  cluster::CpuPool cpu(&sim, 1);
  std::vector<TimeNs> done;
  cpu.Execute(Millis(2), [&] { done.push_back(sim.Now()); });  // On core at t=0.
  cpu.Execute(Millis(1), [&] { done.push_back(sim.Now()); });  // Queued.
  sim.Schedule(Millis(1), [&] { cpu.PauseFor(Millis(9)); });   // Mid-burst pause.
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Millis(2));   // Stop-the-world does not preempt the core...
  EXPECT_EQ(done[1], Millis(11));  // ...but the next burst waits for the resume.
}

// ----------------------------------------------------------------- Network

TEST(NetworkFaultTest, DelayMultiplierStretchesOneLink) {
  sim::Simulator sim;
  cluster::NetworkParams params;
  params.jitter = 0;
  cluster::Network net(&sim, params, 5);
  net.SetLinkDelayMultiplier(/*peer=*/0, 10.0);
  TimeNs slow = -1, fast = -1;
  net.Deliver(0, [&]() mutable { slow = sim.Now(); });
  net.Deliver(1, [&]() mutable { fast = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fast, params.one_way);
  EXPECT_EQ(slow, 10 * params.one_way);
  net.SetLinkDelayMultiplier(0, 1.0);  // Heal.
  TimeNs healed = -1;
  const TimeNs base = sim.Now();
  net.Deliver(0, [&]() mutable { healed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(healed - base, params.one_way);
}

TEST(NetworkFaultTest, DropIsLostThenRetransmitted) {
  sim::Simulator sim;
  cluster::NetworkParams params;
  params.jitter = 0;
  cluster::Network net(&sim, params, 5);
  net.SetLinkDropProbability(/*peer=*/2, 1.0);
  TimeNs delivered = -1;
  net.Deliver(2, [&]() mutable { delivered = sim.Now(); });
  sim.Run();
  // Lost, then redelivered one retransmit timeout later — never vanished.
  EXPECT_EQ(delivered, params.one_way + cluster::kRetransmitTimeout);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkFaultTest, PartitionHoldsUntilHealThenFlushesInOrder) {
  sim::Simulator sim;
  cluster::NetworkParams params;
  params.jitter = 0;
  cluster::Network net(&sim, params, 5);
  net.SetLinkPartitioned(/*peer=*/1, true);
  EXPECT_TRUE(net.LinkPartitioned(1));
  std::vector<int> order;
  net.Deliver(1, [&]() mutable { order.push_back(1); });
  net.Deliver(1, [&]() mutable { order.push_back(2); });
  sim.Run();
  EXPECT_TRUE(order.empty());  // Held, not dropped.
  EXPECT_EQ(net.messages_deferred(), 2u);
  net.SetLinkPartitioned(1, false);
  sim.Run();
  ASSERT_EQ(order.size(), 2u);  // Arrival order preserved across the heal.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(net.messages_delivered(), 2u);
}

// ---------------------------------------------------------------- Injector

cluster::Cluster::Options SmallClusterOptions(int nodes) {
  cluster::Cluster::Options opt;
  opt.num_nodes = nodes;
  opt.node.num_keys = 1 << 12;
  opt.node.os.backend = os::BackendKind::kDiskCfq;
  return opt;
}

// A 3-node cluster of LSM nodes on disks (§5's LevelDB + Riak store).
cluster::Cluster::Options SmallRingOptions() {
  cluster::Cluster::Options opt = SmallClusterOptions(3);
  opt.node.access = kv::AccessPath::kLsm;
  return opt;
}

// A fail-slow disk on node 0 and a pause on node 1 of `store`: both apply,
// heal and log, and show in the trace.
void ExpectAppliesClearsAndLogs(sim::Simulator& sim, const obs::Tracer& tracer,
                                cluster::Cluster& store) {
  FaultPlanBuilder b;
  b.FailSlowDisk(/*node=*/0, Millis(1), Millis(4), 8.0);
  b.NodePause(/*node=*/1, Millis(2), Millis(3));
  FaultInjector inj(&store, b.Build());
  inj.Start();
  // Fault events are daemons: a workload event must keep Run() alive past
  // the last episode end.
  bool saw_peak = false;
  bool saw_pause = false;
  sim.Schedule(Millis(3), [&] {
    saw_peak = store.node(0).os().disk()->service_time_multiplier() > 1.0;
    saw_pause = store.node(1).cpu().paused();
  });
  sim.Schedule(Millis(10), [] {});
  sim.Run();
  EXPECT_TRUE(saw_peak);
  EXPECT_TRUE(saw_pause);
  EXPECT_EQ(inj.episodes_begun(), 2u);
  EXPECT_EQ(inj.episodes_skipped(), 0u);
  EXPECT_DOUBLE_EQ(store.node(0).os().disk()->service_time_multiplier(), 1.0);  // Healed.
  ASSERT_EQ(inj.applied().size(), 2u);
  EXPECT_EQ(inj.applied()[0].kind, FaultKind::kFailSlowDisk);
  EXPECT_EQ(inj.applied()[0].start, Millis(1));
  EXPECT_EQ(inj.applied()[0].end, Millis(5));
  EXPECT_EQ(inj.applied()[1].kind, FaultKind::kNodePause);
#if MITT_OBS_ENABLED
  // Episode windows show in the trace as fault_active spans, stamped at
  // begin so even run-outliving faults are visible.
  int fault_spans = 0;
  for (const auto& span : tracer.OrderedSpans()) {
    if (span.kind == obs::SpanKind::kFaultActive) {
      ++fault_spans;
      EXPECT_EQ(span.end - span.begin, span.node == 0 ? Millis(4) : Millis(3));
    }
  }
  EXPECT_EQ(fault_spans, 2);
#else
  (void)tracer;
#endif
}

TEST(FaultInjectorTest, AppliesClearsAndLogsEpisodes) {
  {
    SCOPED_TRACE("DocStore cluster");
    sim::ShardedEngine engine({});
    sim::Simulator& sim = *engine.shard(0);
    obs::Tracer tracer;
    sim.set_tracer(&tracer);
    cluster::Cluster c(&engine, SmallClusterOptions(2));
    ExpectAppliesClearsAndLogs(sim, tracer, c);
  }
  {
    SCOPED_TRACE("LSM cluster");
    sim::ShardedEngine engine({});
    sim::Simulator& sim = *engine.shard(0);
    obs::Tracer tracer;
    sim.set_tracer(&tracer);
    cluster::Cluster ring(&engine, SmallRingOptions());
    ExpectAppliesClearsAndLogs(sim, tracer, ring);
  }
}

// The ring's put hops are tagged with their replica: a partition on one
// replica holds the hop to it until the heal, while the put acks from
// another (Riak w=1).
TEST(FaultInjectorTest, PartitionHoldsRingPutHopToThatReplica) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster ring(&engine, SmallRingOptions());
  constexpr uint64_t kKey = 55;
  FaultPlanBuilder b;
  b.NetworkPartition(/*node=*/ring.ReplicasOf(kKey)[1], Millis(1), Millis(4));
  FaultInjector inj(&ring, b.Build());
  inj.Start();
  Status status = Status::Internal();
  TimeNs acked = -1;
  sim.Schedule(Millis(2), [&] {
    ring.Put(kKey, [&](Status s) {
      status = s;
      acked = sim.Now();
    });
  });
  sim.Schedule(Millis(10), [] {});
  sim.Run();
  EXPECT_EQ(inj.episodes_begun(), 1u);
  EXPECT_EQ(ring.network().messages_deferred(), 1u);  // The request hop.
  EXPECT_TRUE(status.ok());
  EXPECT_LT(acked, Millis(5));  // Before the heal.
  for (int i = 0; i < ring.num_nodes(); ++i) {
    // The held put landed at the heal.
    EXPECT_EQ(static_cast<lsm::LsmNode&>(ring.node(i)).lsm().memtable_entries(), 1u);
  }
}

TEST(FaultInjectorTest, SkipsEpisodesTheWorldCannotHost) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster c(&engine, SmallClusterOptions(2));  // Disk backend, 2 nodes.
  FaultPlanBuilder b;
  b.SsdReadRetry(/*node=*/0, Millis(1), Millis(2), 25.0);  // No SSD here.
  b.NodePause(/*node=*/9, Millis(1), Millis(2));           // No such node.
  FaultInjector inj(&c, b.Build());
  inj.Start();
  sim.Schedule(Millis(5), [] {});
  sim.Run();
  EXPECT_EQ(inj.episodes_begun(), 0u);
  EXPECT_EQ(inj.episodes_skipped(), 2u);
  EXPECT_TRUE(inj.applied().empty());
}

// ------------------------------------------------- Back-to-back episodes
//
// Episode B begins on A's target exactly when A ends. A's End is queued at
// A's Begin, after B's Begin, so unless the injector runs the End first it
// heals the knob B has just set. Each case runs A over [1, 3) ms and B over
// [3 + gap, 7) ms and observes the target at 5 ms: a gap of 1 ns is the
// order-free reference the exact adjacency (gap 0) must match.

FaultPlan BackToBackPlan(FaultKind kind, double severity, int node, DurationNs gap) {
  FaultPlanBuilder b;
  b.Add({kind, node, Millis(1), Millis(2), severity, -1});
  b.Add({kind, node, Millis(3) + gap, Millis(4) - gap, severity, -1});
  return b.Build();
}

// Runs the plan's two episodes to their ends and checks the log.
void RunBackToBack(sim::Simulator& sim, const FaultInjector& inj, DurationNs gap) {
  sim.Schedule(Millis(10), [] {});
  sim.Run();
  ASSERT_EQ(inj.applied().size(), 2u);
  EXPECT_EQ(inj.applied()[0].start, Millis(1));
  EXPECT_EQ(inj.applied()[0].end, Millis(3));
  EXPECT_EQ(inj.applied()[1].start, Millis(3) + gap);
  EXPECT_EQ(inj.applied()[1].end, Millis(7));
}

// Hops held by the partition of node 1's link, for one hop sent at 5 ms.
uint64_t PartitionHeldHops(DurationNs gap) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster c(&engine, SmallClusterOptions(2));
  FaultInjector inj(&c, BackToBackPlan(FaultKind::kNetworkPartition, 1.0, 1, gap));
  inj.Start();
  sim.Schedule(Millis(5), [&] { c.network().DeliverToNode(1, [] {}); });
  RunBackToBack(sim, inj, gap);
  return c.network().messages_deferred();
}

TEST(FaultInjectorTest, BackToBackPartitionsBothHoldTheLink) {
  EXPECT_EQ(PartitionHeldHops(1), 1u);
  EXPECT_EQ(PartitionHeldHops(0), 1u);
}

// One-way time of a hop to node 1 sent at 5 ms, on a jitter-free network.
DurationNs DegradedHop(DurationNs gap) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster::Options opt = SmallClusterOptions(2);
  opt.network.jitter = 0;
  cluster::Cluster c(&engine, opt);
  FaultInjector inj(&c, BackToBackPlan(FaultKind::kNetworkDegrade, 6.0, 1, gap));
  inj.Start();
  TimeNs arrived = -1;
  sim.Schedule(Millis(5), [&] { c.network().DeliverToNode(1, [&] { arrived = sim.Now(); }); });
  RunBackToBack(sim, inj, gap);
  return arrived - Millis(5);
}

TEST(FaultInjectorTest, BackToBackDegradesBothSlowTheLink) {
  const DurationNs one_way = cluster::NetworkParams{}.one_way;
  EXPECT_EQ(DegradedHop(1), 6 * one_way);
  EXPECT_EQ(DegradedHop(0), 6 * one_way);
}

// Latency of one uncached 4 KiB read on node 0's SSD issued at 5 ms.
DurationNs RetryStormRead(DurationNs gap) {
  sim::ShardedEngine engine({});
  sim::Simulator& sim = *engine.shard(0);
  cluster::Cluster::Options opt = SmallClusterOptions(1);
  opt.node.os.backend = os::BackendKind::kSsd;
  cluster::Cluster c(&engine, opt);
  os::Os& os = c.node(0).os();
  const uint64_t file = os.CreateFile(1 << 20);
  FaultInjector inj(&c, BackToBackPlan(FaultKind::kSsdReadRetry, 25.0, 0, gap));
  inj.Start();
  TimeNs done = -1;
  sim.Schedule(Millis(5), [&] {
    os::Os::ReadArgs args;
    args.file = file;
    args.bypass_cache = true;
    os.ReadWithWaitHint(args, [&](Status, DurationNs) { done = sim.Now(); });
  });
  RunBackToBack(sim, inj, gap);
  return done - Millis(5);
}

TEST(FaultInjectorTest, BackToBackReadRetryStormsBothSlowReads) {
  const DurationNs healthy = RetryStormRead(Millis(3));  // B begins at 6 ms.
  const DurationNs storm = RetryStormRead(1);
  EXPECT_GT(storm, 5 * healthy);
  EXPECT_EQ(RetryStormRead(0), storm);
}

// ------------------------------------------------- End-to-end determinism

// The subsystem's headline contract: a fault-laden scenario fingerprints
// (latency samples, fault logs, traces and all) bit-identically at every
// worker-grid point.
TEST(FaultDeterminismTest, ScenarioBitIdenticalAcrossWorkerCounts) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 400;
  opt.warmup_requests = 40;
  opt.pin_primary_node = 0;
  opt.noise = harness::NoiseKind::kNone;
  opt.deadline = Millis(15);
  opt.hedge_delay = Millis(15);
  opt.app_timeout = Millis(15);
  opt.trace = true;
  opt.seed = 99;
  FaultPlanBuilder b;
  b.FailSlowDisk(/*node=*/0, Millis(20), Millis(400), 6.0);
  b.NodePause(/*node=*/1, Millis(50), Millis(30));
  b.NetworkDegrade(/*node=*/2, Millis(10), Millis(200), 20.0);
  opt.fault_plan = b.Build();

  std::vector<harness::Trial> trials;
  for (const auto kind : {harness::StrategyKind::kBase, harness::StrategyKind::kAppTimeout,
                          harness::StrategyKind::kMittos}) {
    trials.push_back({opt, kind, ""});
  }
  const harness::GridRun grid = harness::RunOnWorkerGrid(trials);
  EXPECT_EQ(grid.drift, std::vector<std::string>{});
  for (const harness::RunResult& r : grid.results) {
    EXPECT_GT(r.fault_episodes, 0u) << r.name;
  }
  // And the faults genuinely fired: the fail-slow episode is in every log.
  bool saw_failslow = false;
  for (const auto& e : grid.results[0].fault_log) {
    saw_failslow |= e.kind == FaultKind::kFailSlowDisk;
  }
  EXPECT_TRUE(saw_failslow);
}

// Sharded analogue: a 128-node world auto-shards onto the PDES engine, the
// injector routes episodes through ScheduleGlobal (quiesced), and the run
// must fingerprint bit-identically at any intra-trial worker count —
// including the env-resolved default (intra_workers=0).
TEST(FaultDeterminismTest, ShardedScenarioBitIdenticalAcrossIntraWorkers) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 128;
  opt.num_clients = 32;
  opt.num_keys_per_node = 256;
  opt.cache_pages = 128;
  opt.warm_fraction = 0.5;
  opt.measure_requests = 600;
  opt.warmup_requests = 50;
  opt.noise = harness::NoiseKind::kNone;
  opt.deadline = Millis(15);
  opt.seed = 1234;
  FaultPlanBuilder b;
  b.FailSlowDisk(/*node=*/5, Millis(20), Millis(400), 6.0);
  b.NodePause(/*node=*/70, Millis(50), Millis(30));
  b.NetworkDegrade(/*node=*/100, Millis(10), Millis(200), 20.0);
  opt.fault_plan = b.Build();

  auto run = [&opt](int intra_workers) {
    harness::ExperimentOptions o = opt;
    o.intra_workers = intra_workers;
    harness::Experiment experiment(o);
    return experiment.Run(harness::StrategyKind::kMittos);
  };
  const harness::RunResult ref = run(1);
  EXPECT_EQ(ref.num_shards, 4) << "128 nodes must auto-shard";
  EXPECT_GT(ref.fault_episodes, 0u);
  for (const int workers : {4, 0}) {
    EXPECT_EQ(harness::Fingerprint(run(workers)), harness::Fingerprint(ref))
        << "intra_workers=" << workers;
  }
}

}  // namespace
}  // namespace mitt::fault
