// ShardedEngine (src/sim/sharded_engine.h): conservative-PDES unit tests
// plus the end-to-end determinism properties the whole PR hangs on —
// scorecards and trace exports must be *byte-identical* at any
// MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS combination.

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"
#include "src/sim/sharded_engine.h"

namespace mitt {
namespace {

using harness::StrategyKind;

// One self-rescheduling event chain: fires `left` + 1 times, 30 µs apart.
struct Chain {
  sim::Simulator* sim;
  int left;
  void Fire() {
    if (left > 0) {
      --left;
      sim->ScheduleAt(sim->Now() + Micros(30), [this] { Fire(); });
    }
  }
};

// Skewed load for the accounting tests: shard s of `engine` runs s+1 chains
// of `events` events each. The chains live in `chains`, which must outlive
// the run (a deque keeps their addresses stable).
void StartSkewedChains(sim::ShardedEngine& engine, int events, std::deque<Chain>* chains) {
  for (int s = 0; s < engine.num_shards(); ++s) {
    for (int c = 0; c <= s; ++c) {
      Chain& chain = chains->emplace_back(Chain{engine.shard(s), events - 1});
      chain.sim->ScheduleAt(Micros(1) * (c + 1), [&chain] { chain.Fire(); });
    }
  }
}

// ------------------------------------------------------------ engine basics

TEST(ShardedEngineTest, SingleShardMatchesPlainSimulator) {
  // One shard, no lookahead needed: the engine degenerates to Simulator::Run.
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(0)->ScheduleAt(Micros(20), [&] { order.push_back(2); });
  engine.shard(0)->ScheduleAt(Micros(10), [&] { order.push_back(1); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.executed_events(), 2u);
  EXPECT_EQ(engine.cross_shard_messages(), 0u);
}

// The 1-shard contract: the engine runs its shard's own loop. A global event
// is a daemon event on the shard, so it fires in (time, seq) order with
// equal-time shard events and counts as an executed event; a Post schedules
// directly; no windows run.
TEST(ShardedEngineTest, OneShardRunsThePlainSimulatorSchedule) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(0)->ScheduleAt(Micros(50), [&] { order.push_back(1); });
  engine.ScheduleGlobal(Micros(50), [&] { order.push_back(2); });
  engine.shard(0)->ScheduleAt(Micros(50), [&] { order.push_back(3); });
  engine.Post(0, Micros(50), [&] { order.push_back(4); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.executed_events(), 4u);
  EXPECT_EQ(engine.cross_shard_messages(), 0u);
  EXPECT_EQ(engine.windows_run(), 0u);
}

TEST(ShardedEngineTest, OneShardPredicateStopsOnTheExactEvent) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  opt.lookahead = Micros(100);  // Wider than the event gaps: windows would overshoot.
  sim::ShardedEngine engine(opt);
  int fired = 0;
  for (int i = 1; i <= 3; ++i) {
    engine.shard(0)->ScheduleAt(Micros(10) * i, [&] { ++fired; });
  }
  EXPECT_TRUE(engine.RunUntilPredicate([&] { return fired == 2; }));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.Now(), Micros(20));
  EXPECT_EQ(engine.executed_events(), 2u);
  EXPECT_EQ(engine.windows_run(), 0u);
}

TEST(ShardedEngineTest, PostDeliversInDeterministicOrder) {
  // Messages from two source shards to one destination, tied on time: drain
  // order must be (when, src, send-seq) regardless of worker count.
  for (const int workers : {1, 2, 3}) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 3;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine e2(opt);
    std::vector<int> arrivals;
    // Shards 1 and 2 each send two messages to shard 0 at the same time;
    // (src, k) is encoded in the arrival log to expose the tie-break.
    for (const int src : {2, 1}) {
      e2.shard(src)->ScheduleAt(Micros(10), [&e2, &arrivals, src] {
        for (int k = 0; k < 2; ++k) {
          e2.Post(0, Micros(500), [&arrivals, src, k] { arrivals.push_back(src * 10 + k); });
        }
      });
    }
    e2.Run();
    // Equal time -> ascending src, then send order within the pair.
    EXPECT_EQ(arrivals, (std::vector<int>{10, 11, 20, 21})) << "workers=" << workers;
    EXPECT_EQ(e2.cross_shard_messages(), 4u);
  }
}

TEST(ShardedEngineTest, GlobalEventsRunQuiescedBeforeEqualTimeShardEvents) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = 2;
  opt.lookahead = Micros(100);
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(1)->ScheduleAt(Micros(50), [&] { order.push_back(2); });
  engine.ScheduleGlobal(Micros(50), [&] {
    // Quiesced: both shard clocks have been advanced to exactly this time.
    EXPECT_EQ(engine.shard(0)->Now(), Micros(50));
    EXPECT_EQ(engine.shard(1)->Now(), Micros(50));
    order.push_back(1);
  });
  engine.shard(0)->ScheduleAt(Micros(10), [&] { order.push_back(0); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngineTest, CriticalPathAccountingIsConsistent) {
  // cp(1) counts every windowed event; cp is monotonically non-increasing in
  // the worker count; cp(w) is a fixed property of the schedule, not of the
  // worker count the engine actually ran with.
  std::vector<uint64_t> cp1, cp8;
  for (const int workers : {1, 4}) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 8;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine engine(opt);
    std::deque<Chain> chains;  // Uneven load: shard s runs s+1 chains of 50 events.
    StartSkewedChains(engine, 50, &chains);
    engine.Run();
    EXPECT_EQ(engine.critical_path_events(1), engine.executed_events());
    EXPECT_GE(engine.critical_path_events(1), engine.critical_path_events(2));
    EXPECT_GE(engine.critical_path_events(2), engine.critical_path_events(4));
    EXPECT_GE(engine.critical_path_events(4), engine.critical_path_events(8));
    EXPECT_GT(engine.critical_path_events(8), 0u);
    EXPECT_EQ(engine.critical_path_events(3), 0u) << "untracked worker count";
    cp1.push_back(engine.critical_path_events(1));
    cp8.push_back(engine.critical_path_events(8));
  }
  EXPECT_EQ(cp1[0], cp1[1]);  // Same schedule -> same accounting at any workers.
  EXPECT_EQ(cp8[0], cp8[1]);
}

TEST(ShardedEngineTest, WorkerCountDoesNotChangeWindowCount) {
  auto run = [](int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 4;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine engine(opt);
    uint64_t bounces = 0;
    std::function<void(int)> bounce = [&](int dst) {
      if (++bounces >= 1000) {
        return;
      }
      engine.Post((dst + 1) % 4, engine.shard(dst)->Now() + Micros(120),
                  [&bounce, dst] { bounce((dst + 1) % 4); });
    };
    engine.shard(0)->ScheduleAt(Micros(5), [&bounce] { bounce(0); });
    engine.Run();
    return std::tuple(engine.windows_run(), engine.executed_events(),
                      engine.cross_shard_messages(), engine.Now());
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(4), base);
  EXPECT_EQ(run(8), base);  // Caps at num_shards.
}

TEST(ShardedEngineTest, FusionFastPathPreservesScheduleByteForByte) {
  // A world built to live in the quiet-frontier regime: shard 2 self-chains
  // with gaps smaller than the lookahead (so it is the lone shard below the
  // window horizon for long stretches) and every 40th link posts across the
  // ring (forcing fallbacks to the full barrier path). With fusion on, the
  // fast path must engage — and every observable, including the per-shard
  // event order and the *window count*, must be byte-identical to the
  // unfused engine at any worker count.
  auto run = [](int fusion, int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 4;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    opt.fusion = fusion;
    sim::ShardedEngine engine(opt);
    std::vector<std::vector<int>> logs(4);  // Per-shard: written only by its owner.
    std::function<void(int, int)> link = [&](int shard, int left) {
      logs[static_cast<size_t>(shard)].push_back(left);
      if (left <= 0) {
        return;
      }
      auto* sim = engine.shard(shard);
      if (left % 40 == 0) {
        const int dst = (shard + 1) % 4;
        engine.Post(dst, sim->Now() + Micros(120),
                    [&link, dst, left] { link(dst, left - 1); });
      } else {
        sim->ScheduleAt(sim->Now() + Micros(30), [&link, shard, left] { link(shard, left - 1); });
      }
    };
    engine.shard(2)->ScheduleAt(Micros(5), [&link] { link(2, 400); });
    engine.Run();
    return std::tuple(engine.windows_run(), engine.fused_windows(), engine.executed_events(),
                      engine.cross_shard_messages(), engine.Now(), logs);
  };
  const auto fused = run(1, 1);
  const auto unfused = run(0, 1);
  EXPECT_GT(std::get<1>(fused), 0u) << "fast path never engaged";
  EXPECT_EQ(std::get<1>(unfused), 0u);
  EXPECT_EQ(std::get<0>(fused), std::get<0>(unfused)) << "fusion changed the window count";
  EXPECT_EQ(std::get<2>(fused), std::get<2>(unfused));
  EXPECT_EQ(std::get<3>(fused), std::get<3>(unfused));
  EXPECT_EQ(std::get<4>(fused), std::get<4>(unfused));
  EXPECT_EQ(std::get<5>(fused), std::get<5>(unfused)) << "event order diverged";
  EXPECT_EQ(run(1, 4), fused) << "fusion decisions depended on worker count";
}

TEST(ShardedEngineTest, AdaptiveRebalanceIsScheduleInvariantAndBalances) {
  // Skewed load (shard s runs s+1 event chains): the adaptive LPT repack
  // must leave every schedule observable untouched — it only moves shards
  // between threads — while packing the hypothetical 4-worker bins tighter
  // than the s % 4 map every engine starts from. A period longer than the
  // run never repacks, so that run keeps the s % 4 map throughout.
  auto run = [](int period, int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 8;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    opt.rebalance_period = period;
    opt.fusion = 0;
    sim::ShardedEngine engine(opt);
    std::deque<Chain> chains;
    StartSkewedChains(engine, 200, &chains);
    engine.Run();
    return std::tuple(engine.windows_run(), engine.executed_events(), engine.Now(),
                      engine.imbalance_ratio(4));
  };
  const auto statc = run(std::numeric_limits<int>::max(), 1);
  const auto adaptive = run(8, 1);
  EXPECT_EQ(std::get<0>(statc), std::get<0>(adaptive));
  EXPECT_EQ(std::get<1>(statc), std::get<1>(adaptive));
  EXPECT_EQ(std::get<2>(statc), std::get<2>(adaptive));
  // Shard s executes 200 * (s + 1) events; s % 4 bins them 1200, 1600, 2000
  // and 2400 (mean 1800).
  EXPECT_DOUBLE_EQ(std::get<3>(statc), 2400.0 / 1800.0) << "the s % 4 map must hold";
  EXPECT_LT(std::get<3>(adaptive), std::get<3>(statc))
      << "LPT should beat s % w on a skewed world";
  // Accounting (including imbalance) is derived from event counts, so it is
  // itself bit-deterministic across worker counts.
  EXPECT_EQ(run(8, 4), adaptive);
}

// ------------------------------------- 1000-node chaos scorecard property

// The sharded engine's headline property: a 1000-node chaos scenario —
// auto-sharded onto the PDES engine — fingerprints byte-identically across
// every MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS combination. Workload is
// kept small (the property is about ordering, not statistics).
harness::ExperimentOptions ChaosWorld() {
  harness::ExperimentOptions base;
  base.num_nodes = 1000;
  base.num_clients = 250;
  base.num_keys_per_node = 64;
  base.cache_pages = 64;
  base.warm_fraction = 0.5;
  base.measure_requests = 1200;
  base.warmup_requests = 100;
  base.noise = harness::NoiseKind::kNone;
  base.deadline = Millis(13);
  base.seed = 20170917;
  return base;
}

// The chaos-1000 scenario through ScenarioRunner. With `drift`, phase B runs
// on the determinism grid and the worker arguments are ignored. Returns the
// Fingerprint of every phase-B run.
std::string ChaosFingerprint(int intra_workers, int trial_workers, int engine_fusion = -1,
                             int engine_rebalance = -1,
                             std::vector<std::string>* drift = nullptr) {
  harness::ScenarioRunner::Options opt;
  opt.base = ChaosWorld();
  opt.base.intra_workers = intra_workers;
  opt.base.engine_fusion = engine_fusion;
  opt.base.engine_rebalance = engine_rebalance;
  opt.strategies = {StrategyKind::kMittos};
  opt.workers = trial_workers;
  harness::ScenarioRunner runner(opt);

  fault::ChaosOptions chaos;
  chaos.mean_gap = Seconds(2);
  harness::FaultScenario scenario;
  scenario.name = "chaos-1000";
  // The run lasts about 26 ms simulated, so a 20 ms horizon lets every
  // episode (truncated at the horizon) clear inside it.
  scenario.plan = fault::GenerateChaosPlan(chaos, opt.base.num_nodes,
                                           /*horizon=*/Millis(20), /*seed=*/7);
  runner.Run({scenario}, drift);
  EXPECT_EQ(runner.results().back().num_shards, 31) << "1000 nodes must auto-shard";
  EXPECT_GT(runner.results().back().fault_episodes, 0u) << "chaos must land";
  EXPECT_FALSE(runner.results().back().fault_log.empty()) << "an episode must clear";
  std::string fingerprint;
  for (const harness::RunResult& r : runner.results()) {
    fingerprint += harness::Fingerprint(r) + "\n";
  }
  return fingerprint;
}

TEST(ShardDeterminismTest, ChaosScorecardIsByteIdenticalAcrossWorkerGrids) {
  std::vector<std::string> drift;
  const std::string reference = ChaosFingerprint(/*intra_workers=*/0, /*trial_workers=*/0,
                                                 /*engine_fusion=*/-1, /*engine_rebalance=*/-1,
                                                 &drift);
  EXPECT_EQ(drift, std::vector<std::string>{});
  // Eight intra-trial workers: more threads than shard pairs in a window.
  EXPECT_EQ(ChaosFingerprint(/*intra_workers=*/8, /*trial_workers=*/1), reference);
  EXPECT_EQ(ChaosFingerprint(8, 4), reference);
}

TEST(ShardDeterminismTest, FusionAndRebalanceKeepChaosScorecardByteIdentical) {
  // The scale-out machinery is schedule-preserving: the chaos run with
  // window fusion disabled, or with an LPT repack at every barrier
  // (rebalance period 1), must fingerprint byte-identically to the default
  // engine's (fusion on, repacks every 64 windows) — at every {intra} x
  // {trial} grid corner.
  const std::string reference = ChaosFingerprint(/*intra_workers=*/1, /*trial_workers=*/1);
  ASSERT_FALSE(reference.empty());
  // Unfused engine across the grid.
  EXPECT_EQ(ChaosFingerprint(1, 1, /*engine_fusion=*/0), reference);
  EXPECT_EQ(ChaosFingerprint(2, 4, /*engine_fusion=*/0), reference);
  EXPECT_EQ(ChaosFingerprint(8, 1, /*engine_fusion=*/0), reference);
  // A repack at every barrier across the grid.
  EXPECT_EQ(ChaosFingerprint(1, 4, -1, /*engine_rebalance=*/1), reference);
  EXPECT_EQ(ChaosFingerprint(2, 1, -1, /*engine_rebalance=*/1), reference);
  EXPECT_EQ(ChaosFingerprint(8, 4, -1, /*engine_rebalance=*/1), reference);
  // Fusion off with a repack at every barrier at the far grid corner, and a
  // period-4 cadence.
  EXPECT_EQ(ChaosFingerprint(8, 4, 0, 1), reference);
  EXPECT_EQ(ChaosFingerprint(2, 4, -1, /*engine_rebalance=*/4), reference);
}

TEST(ShardDeterminismTest, IntraWorkerEnvVarIsHonored) {
  // MITT_INTRA_WORKERS is the env knob CI sets; resolving through it must be
  // the same as setting intra_workers explicitly.
  ASSERT_EQ(setenv("MITT_INTRA_WORKERS", "2", /*overwrite=*/1), 0);
  EXPECT_EQ(sim::DefaultIntraWorkers(), 2);
  const std::string via_env = ChaosFingerprint(/*intra_workers=*/0, /*trial_workers=*/1);
  ASSERT_EQ(unsetenv("MITT_INTRA_WORKERS"), 0);
  EXPECT_EQ(sim::DefaultIntraWorkers(), 1);
  EXPECT_EQ(via_env, ChaosFingerprint(/*intra_workers=*/2, /*trial_workers=*/1));
}

// -------------------------------------------- trace export byte-identity

TEST(ShardDeterminismTest, TraceExportIsByteIdenticalAcrossWorkerCounts) {
  // Traced sharded run with a deliberately tiny ring, so the drop-oldest
  // path truncates: per-shard truncation plus the (begin, end, shard-order)
  // merge must still export byte-identical JSON at any worker count.
  auto run = [](int intra_workers) {
    harness::ExperimentOptions opt;
    opt.num_nodes = 128;
    opt.num_clients = 64;
    opt.num_keys_per_node = 256;
    opt.cache_pages = 128;
    opt.warm_fraction = 0.5;
    opt.measure_requests = 1500;
    opt.warmup_requests = 100;
    opt.noise = harness::NoiseKind::kNone;
    opt.deadline = Millis(13);
    opt.trace = true;
    opt.trace_capacity = 512;  // Small enough that every shard ring wraps.
    opt.num_shards = 8;
    opt.intra_workers = intra_workers;
    opt.seed = 20170918;
    harness::Experiment experiment(opt);
    return experiment.Run(StrategyKind::kMittos);
  };
  const harness::RunResult ref = run(1);
  ASSERT_EQ(ref.num_shards, 8);
#ifdef MITT_OBS_DISABLED
  // No span recording compiled in: nothing to keep and nothing to drop.
  ASSERT_TRUE(ref.trace_spans.empty());
  ASSERT_EQ(ref.trace_dropped, 0u);
#else
  ASSERT_GT(ref.trace_dropped, 0u) << "ring must wrap to exercise drop-oldest";
#endif
  const std::string ref_json = obs::ChromeTraceJson(ref.trace_spans, "scale");
  for (const int workers : {2, 8}) {
    const harness::RunResult r = run(workers);
    EXPECT_EQ(r.trace_dropped, ref.trace_dropped) << "workers=" << workers;
    EXPECT_EQ(obs::ChromeTraceJson(r.trace_spans, "scale"), ref_json)
        << "workers=" << workers;
  }
}

// --------------------------------------- every client strategy, 2 shards

TEST(ShardDeterminismTest, EveryStrategyIsBitIdenticalAcrossIntraWorkers) {
  // Each strategy's pooled per-Get records live on the shard that issued the
  // Get, and replies come home through the engine's mailboxes: no strategy's
  // results may depend on how many threads drive the windows.
  auto run = [](StrategyKind kind, int intra_workers) {
    harness::ExperimentOptions opt;
    opt.num_nodes = 8;
    opt.num_clients = 8;
    opt.num_shards = 2;
    opt.num_keys_per_node = 1 << 12;
    opt.measure_requests = 400;
    opt.warmup_requests = 40;
    opt.noise = harness::NoiseKind::kEc2;
    opt.ec2 = harness::CompressedEc2Noise();
    opt.deadline = Millis(20);
    opt.hedge_delay = Millis(20);
    opt.app_timeout = Millis(20);
    opt.intra_workers = intra_workers;
    opt.seed = 20;
    harness::Experiment experiment(opt);
    return experiment.Run(kind);
  };
  for (const StrategyKind kind :
       {StrategyKind::kBase, StrategyKind::kAppTimeout, StrategyKind::kClone,
        StrategyKind::kHedged, StrategyKind::kSnitch, StrategyKind::kC3, StrategyKind::kMittos,
        StrategyKind::kMittosWait, StrategyKind::kMittosResilient}) {
    const harness::RunResult ref = run(kind, 1);
    ASSERT_EQ(ref.num_shards, 2);
    EXPECT_GT(ref.cross_shard_messages, 0u) << ref.name;
    const std::string expected = harness::Fingerprint(ref);
    EXPECT_EQ(harness::Fingerprint(run(kind, 2)), expected);
    // Env-resolved (4 in the TSan job).
    EXPECT_EQ(harness::Fingerprint(run(kind, 0)), expected);
  }
}

}  // namespace
}  // namespace mitt
