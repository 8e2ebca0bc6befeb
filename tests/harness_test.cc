#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/study/nosql_study.h"
#include "src/trace/cursor.h"

namespace mitt::harness {
namespace {

// A small but end-to-end experiment: 3 nodes, continuous noise on node 0,
// all keys pinned to node 0's primary ownership (the §7.1 microbenchmark
// shape). Small request counts keep the suite fast.
ExperimentOptions MicroOptions() {
  ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 600;
  opt.warmup_requests = 50;
  opt.pin_primary_node = 0;
  opt.noise = NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.deadline = Millis(20);
  opt.hedge_delay = Millis(20);
  opt.app_timeout = Millis(20);
  opt.num_keys_per_node = 1 << 19;
  opt.seed = 2024;
  return opt;
}

TEST(ExperimentTest, MittosBeatsBaseUnderContinuousNoise) {
  Experiment experiment(MicroOptions());
  const RunResult base = experiment.Run(StrategyKind::kBase);
  const RunResult mitt = experiment.Run(StrategyKind::kMittos);
  ASSERT_EQ(base.requests, 650u);
  ASSERT_EQ(mitt.requests, 650u);
  EXPECT_GT(mitt.ebusy_failovers, 0u);
  // The noisy primary dominates Base's distribution; MittOS fails over fast.
  EXPECT_LT(mitt.get_latencies.Percentile(90), base.get_latencies.Percentile(90));
  EXPECT_LT(mitt.get_latencies.Percentile(90), Millis(20));
}

TEST(ExperimentTest, MittosBeatsHedgedAtTail) {
  Experiment experiment(MicroOptions());
  const RunResult hedged = experiment.Run(StrategyKind::kHedged);
  const RunResult mitt = experiment.Run(StrategyKind::kMittos);
  EXPECT_GT(hedged.hedges_sent, 0u);
  // Hedged waits 20ms before reacting; MittOS does not wait.
  EXPECT_LT(mitt.get_latencies.Percentile(90), hedged.get_latencies.Percentile(90));
}

// The paper's SLO rule: the p95 of a Base run's gets, or 13 ms when that p95
// is <= 0; WithSlo fills only the values left negative.
TEST(ExperimentTest, SloRuleIsBaseP95Or13Ms) {
  ExperimentOptions opt = MicroOptions();
  opt.deadline = -1;
  opt.hedge_delay = -1;
  opt.app_timeout = Millis(7);
  opt.measure_requests = 300;
  const SloBase slo = RunSloBase(opt);
  EXPECT_EQ(slo.base.name, "Base");
  EXPECT_EQ(slo.base.requests, 350u);
  EXPECT_GT(slo.slo, 0);
  EXPECT_EQ(slo.slo, slo.base.get_latencies.Percentile(95));
  const ExperimentOptions filled = WithSlo(opt, slo.slo);
  EXPECT_EQ(filled.deadline, slo.slo);
  EXPECT_EQ(filled.hedge_delay, slo.slo);
  EXPECT_EQ(filled.app_timeout, Millis(7));

  // A Base run that measures nothing has no p95.
  opt.measure_requests = 0;
  opt.warmup_requests = 0;
  EXPECT_EQ(RunSloBase(opt).slo, Millis(13));
}

TEST(ExperimentTest, ScaleFactorAmplifiesUserLatency) {
  ExperimentOptions opt = MicroOptions();
  opt.noise = NoiseKind::kNone;
  opt.pin_primary_node = -1;
  opt.scale_factor = 5;
  opt.measure_requests = 300;
  Experiment experiment(opt);
  const RunResult result = experiment.Run(StrategyKind::kBase);
  // A user request waits for all 5 gets: its median exceeds the get median.
  EXPECT_GT(result.user_latencies.Percentile(50), result.get_latencies.Percentile(50));
  EXPECT_EQ(result.user_latencies.count() * 5, result.get_latencies.count());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  EXPECT_EQ(Fingerprint(Experiment(MicroOptions()).Run(StrategyKind::kMittos)),
            Fingerprint(Experiment(MicroOptions()).Run(StrategyKind::kMittos)));
}

// The warmup split. One shard counts warmup across all clients with one
// global issue counter; more shards give each client a fixed quota and
// warmup share. Either way exactly warmup_requests user requests go
// unmeasured, and with quotas each client issues exactly its own.
TEST(ExperimentTest, WarmupSplitLeavesExactlyWarmupRequestsUnmeasured) {
  for (const int shards : {1, 2}) {
    ExperimentOptions opt = MicroOptions();
    opt.noise = NoiseKind::kNone;
    opt.pin_primary_node = -1;
    opt.num_clients = 3;
    opt.scale_factor = 2;
    opt.warmup_requests = 7;  // Not a multiple of the client count.
    opt.measure_requests = 50;
    opt.num_shards = shards;
    opt.record_trace_path = testing::TempDir() + "harness_test_warmup_split.mitttrace";
    Experiment experiment(opt);
    const RunResult r = experiment.Run(StrategyKind::kBase);
    ASSERT_EQ(r.num_shards, shards);
    EXPECT_EQ(r.requests, 57u);
    EXPECT_EQ(r.user_latencies.count(), 50u);
    EXPECT_EQ(r.get_latencies.count(), 100u);

    std::string error;
    auto cursor = trace::FileTraceCursor::Open(opt.record_trace_path, &error);
    ASSERT_NE(cursor, nullptr) << error;
    std::map<uint32_t, int> gets_per_client;
    trace::TraceEvent event;
    while (cursor->Next(&event)) {
      ++gets_per_client[event.stream];
    }
    std::remove(opt.record_trace_path.c_str());
    ASSERT_EQ(gets_per_client.size(), 3u);
    int total = 0;
    for (const auto& [client, gets] : gets_per_client) {
      total += gets;
      if (shards == 2) {
        EXPECT_EQ(gets, 19 * 2) << "client " << client;  // 57 requests / 3 clients, SF 2.
      }
    }
    EXPECT_EQ(total, 57 * 2);
  }
}

TEST(ExperimentTest, Ec2NoiseProducesTailsNotMedians) {
  ExperimentOptions opt = MicroOptions();
  opt.num_nodes = 9;
  opt.num_clients = 6;
  opt.pin_primary_node = -1;
  opt.noise = NoiseKind::kEc2;
  opt.ec2 = CompressedEc2Noise();
  opt.measure_requests = 1200;
  Experiment experiment(opt);
  const RunResult base = experiment.Run(StrategyKind::kBase);
  // Medians stay mechanical; the tail shows the noise.
  EXPECT_LT(base.get_latencies.Percentile(50), Millis(15));
  EXPECT_GT(base.get_latencies.Percentile(99),
            2 * base.get_latencies.Percentile(50));
}

// Warming and cache-drop noise act on a DocStore node's data file, which an
// LSM node does not have.
TEST(ExperimentTest, LsmNodesRejectWarmingAndCacheDrops) {
  ExperimentOptions lsm = MicroOptions();
  lsm.access = kv::AccessPath::kLsm;
  lsm.num_keys_per_node = 1 << 12;
  ExperimentOptions warm = lsm;
  warm.warm_fraction = 0.5;
  EXPECT_THROW(Experiment(warm).Run(StrategyKind::kBase), std::invalid_argument);
  for (const NoiseKind noise : {NoiseKind::kCacheDrop, NoiseKind::kStaticCacheDrop}) {
    ExperimentOptions drops = lsm;
    drops.noise = noise;
    EXPECT_THROW(Experiment(drops).Run(StrategyKind::kBase), std::invalid_argument);
  }
  EXPECT_EQ(Experiment(lsm).Run(StrategyKind::kBase).requests, 650u);
}

// The parallel trial runner's determinism contract: merged results must be
// bit-identical regardless of worker count (ISSUE acceptance criterion).
TEST(RunTrialsTest, ParallelMergeBitIdenticalToSerial) {
  ExperimentOptions opt = MicroOptions();
  opt.measure_requests = 300;
  std::vector<Trial> trials;
  trials.push_back({opt, StrategyKind::kBase, ""});
  trials.push_back({opt, StrategyKind::kMittos, ""});
  opt.seed = 777;  // A second world with different randomness.
  trials.push_back({opt, StrategyKind::kHedged, ""});
  trials.push_back({opt, StrategyKind::kMittos, "Renamed"});

  // Bit-identical means every run's Fingerprint — its latency samples
  // element by element, not just summary stats — matches at every grid point.
  const GridRun grid = RunOnWorkerGrid(trials);
  EXPECT_EQ(grid.drift, std::vector<std::string>{});
  ASSERT_EQ(grid.results.size(), trials.size());
  EXPECT_EQ(grid.results[3].name, "Renamed");
}

TEST(RunTrialsTest, GenericRunnerPreservesTrialOrder) {
  const auto results = RunTrials<size_t>(
      64, [](size_t i) { return i * i; }, /*workers=*/4);
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(RunTrialsTest, PropagatesTrialExceptions) {
  EXPECT_THROW(RunTrials<int>(
                   8,
                   [](size_t i) {
                     if (i == 5) {
                       throw std::runtime_error("trial 5 failed");
                     }
                     return static_cast<int>(i);
                   },
                   /*workers=*/3),
               std::runtime_error);
}

TEST(NosqlStudyTest, ReproducesTableOneFindings) {
  study::NosqlStudyOptions opt;
  opt.requests = 400;
  const auto rows = study::RunNosqlStudy(opt);
  ASSERT_EQ(rows.size(), 6u);

  std::map<std::string, study::NosqlStudyRow> by_name;
  for (const auto& row : rows) {
    by_name[row.name] = row;
  }
  // Finding 1: no system fails over in its default configuration.
  for (const auto& row : rows) {
    EXPECT_FALSE(row.default_tt) << row.name;
    EXPECT_GE(row.default_timeout, Seconds(5)) << row.name;
    // And the rotating contention produces a long default tail.
    EXPECT_GT(row.default_p99, Millis(20)) << row.name;
  }
  // Finding 2: with a 100ms timeout, three systems fail over, three surface
  // read errors to the user.
  int failover = 0;
  int erroring = 0;
  for (const auto& row : rows) {
    if (row.failover_at_100ms) {
      ++failover;
      EXPECT_EQ(row.errors_at_100ms, 0u) << row.name;
    } else if (row.errors_at_100ms > 0) {
      ++erroring;
    }
  }
  EXPECT_EQ(failover, 3);
  EXPECT_EQ(erroring, 3);
  // Finding 3: only two systems support cloning; none support hedged.
  int clones = 0;
  for (const auto& row : rows) {
    clones += row.supports_clone ? 1 : 0;
    EXPECT_FALSE(row.supports_hedged) << row.name;
  }
  EXPECT_EQ(clones, 2);
}

}  // namespace
}  // namespace mitt::harness
