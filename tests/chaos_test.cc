// Chaos-search subsystem tests (DESIGN.md §4j): plan/corpus serde
// round-trips, mutator canonicalization properties, coverage-map behavior,
// oracle unit checks, shrinker minimality, the end-to-end search demo over
// the planted liveness bug, and grid bit-identity of the checked-in corpus.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/coverage.h"
#include "src/chaos/explorer.h"
#include "src/chaos/mutator.h"
#include "src/chaos/oracles.h"
#include "src/chaos/shrinker.h"
#include "src/chaos/world.h"
#include "src/fault/fault_plan.h"
#include "src/fault/plan_serde.h"

namespace mitt {
namespace {

using chaos::ChaosWorldOptions;
using chaos::CorpusEntry;
using chaos::Violation;
using fault::FaultEpisode;
using fault::FaultKind;
using fault::FaultPlan;

FaultPlan SamplePlan() {
  return fault::FaultPlanBuilder()
      .NodePause(1, Millis(90), Millis(20))
      .NetworkDrop(0, Millis(300), Millis(50), 0.1871020748648054)
      .FailSlowDisk(2, Millis(400), Millis(30), 7.25)
      .Build();
}

// --- Serde -----------------------------------------------------------------

TEST(PlanSerdeTest, RoundTripIsExact) {
  const FaultPlan plan = SamplePlan();
  const std::string text = fault::FaultPlanToText(plan);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(fault::FaultPlanFromText(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.episodes().size(), plan.episodes().size());
  for (size_t i = 0; i < plan.episodes().size(); ++i) {
    EXPECT_EQ(parsed.episodes()[i], plan.episodes()[i]) << "episode " << i;
  }
  // print(parse(print(p))) stabilizes on the first print (exact round-trip).
  EXPECT_EQ(fault::FaultPlanToText(parsed), text);
}

TEST(PlanSerdeTest, MalformedLinesAreHardErrors) {
  FaultPlan parsed;
  std::string error;
  EXPECT_FALSE(fault::FaultPlanFromText("episode kind=wat node=0 start=0 dur=1 severity=1",
                                        &parsed, &error));
  EXPECT_FALSE(fault::FaultPlanFromText(
      "episode kind=node_pause node=0 start=0 dur=1 severity=1 bogus=3", &parsed, &error));
}

TEST(CorpusSerdeTest, RoundTripPreservesWorldPlanAndExpectations) {
  CorpusEntry entry;
  entry.world.num_nodes = 5;
  entry.world.num_clients = 7;
  entry.world.requests = 123;
  entry.world.warmup = 11;
  entry.world.deadline = Millis(9);
  entry.world.horizon = Millis(321);
  entry.world.num_shards = 1;
  entry.world.seed = 99;
  entry.world.inject_bug = true;
  entry.world.tenants = true;
  entry.plan = SamplePlan();
  entry.expect = {"completion", "breaker_legal"};
  entry.note = "unit-test provenance";

  CorpusEntry parsed;
  std::string error;
  ASSERT_TRUE(chaos::CorpusEntryFromText(chaos::CorpusEntryToText(entry), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.world.num_nodes, 5);
  EXPECT_EQ(parsed.world.num_clients, 7);
  EXPECT_EQ(parsed.world.requests, 123u);
  EXPECT_EQ(parsed.world.warmup, 11u);
  EXPECT_EQ(parsed.world.deadline, Millis(9));
  EXPECT_EQ(parsed.world.horizon, Millis(321));
  EXPECT_EQ(parsed.world.num_shards, 1);
  EXPECT_EQ(parsed.world.seed, 99u);
  EXPECT_TRUE(parsed.world.inject_bug);
  EXPECT_TRUE(parsed.world.tenants);
  EXPECT_EQ(parsed.expect, entry.expect);
  ASSERT_EQ(parsed.plan.episodes().size(), entry.plan.episodes().size());
  for (size_t i = 0; i < entry.plan.episodes().size(); ++i) {
    EXPECT_EQ(parsed.plan.episodes()[i], entry.plan.episodes()[i]);
  }
}

TEST(CorpusSerdeTest, MissingWorldLineAndUnknownKeysFailLoudly) {
  CorpusEntry parsed;
  std::string error;
  EXPECT_FALSE(chaos::CorpusEntryFromText("# mittos chaos corpus v1\nexpect completion\n",
                                          &parsed, &error));
  EXPECT_FALSE(chaos::CorpusEntryFromText(
      "# mittos chaos corpus v1\nworld nodes=3 clients=4 requests=10 warmup=1 "
      "deadline=1 horizon=1000 shards=1 seed=1 bug=0 tenants=0 wat=1\n",
      &parsed, &error));
}

// Hostile corpus files: every line the reader cannot turn into the world it
// names is rejected with an error that names the line, never a crash or a
// silently clamped value.
TEST(CorpusSerdeTest, HostileLinesFailWithTheirLineNumber) {
  const std::string world =
      "world nodes=3 clients=4 requests=10 warmup=1 deadline=1 horizon=1000 shards=1 seed=1 "
      "bug=0 tenants=0";
  const auto with = [&world](const std::string& from, const std::string& to) {
    std::string line = world;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  const std::vector<std::string> bad_lines = {
      "   ",  // Whitespace only.
      "\t",
      with("nodes=3", "nodes=0"),
      with("nodes=3", "nodes=-3"),
      with("shards=1", "shards=0"),
      with("clients=4", "clients=-1"),
      with("requests=10", "requests=-1"),
      with("warmup=1", "warmup=-1"),
      with("deadline=1", "deadline=-1"),
      with("horizon=1000", "horizon=-1"),
      with("nodes=3", "nodes=2147483648"),                   // Past int.
      with("requests=10", "requests=9223372036854775808"),   // Past int64.
      with("seed=1", "seed=18446744073709551616"),           // Past uint64.
      with("seed=1", "seed=-1"),
      with("bug=0", "bug=2"),
      "episode kind=node_pause node=4294967296 start=0 dur=1 severity=1 chip=-1",
      "episode kind=node_pause node=0 start=9223372036854775808 dur=1 severity=1 chip=-1",
      // Values no generated plan holds: a non-finite or out-of-range
      // severity, and a duration <= 0.
      "episode kind=network_drop node=0 start=0 dur=1000000 severity=nan chip=-1",
      "episode kind=network_degrade node=0 start=0 dur=1000000 severity=-5 chip=-1",
      "episode kind=fail_slow_disk node=0 start=0 dur=-100000000 severity=2 chip=-1",
  };
  for (const std::string& bad : bad_lines) {
    SCOPED_TRACE(bad);
    // The bad line is line 3; a valid world line comes first when it is not
    // the world line itself.
    const bool is_world = bad.rfind("world", 0) == 0;
    const std::string text =
        "# mittos chaos corpus v1\n" + (is_world ? "# note" : world) + "\n" + bad + "\n";
    CorpusEntry parsed;
    std::string error;
    EXPECT_FALSE(chaos::CorpusEntryFromText(text, &parsed, &error));
    EXPECT_EQ(error.rfind("line 3: ", 0), 0u) << error;
  }

  // A seed past 2^63 replays the world it names.
  CorpusEntry parsed;
  std::string error;
  ASSERT_TRUE(chaos::CorpusEntryFromText(
      "# mittos chaos corpus v1\n" + with("seed=1", "seed=18446744073709551615") + "\n",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.world.seed, 18446744073709551615u);
  EXPECT_NE(chaos::CorpusEntryToText(parsed).find(" seed=18446744073709551615 "),
            std::string::npos);

  // Every checked-in corpus file still parses.
  size_t files = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(std::string(MITT_TEST_DATA_DIR) + "/chaos_corpus")) {
    SCOPED_TRACE(file.path().string());
    ++files;
    CorpusEntry entry;
    EXPECT_TRUE(chaos::LoadCorpusEntry(file.path().string(), &entry, &error)) << error;
  }
  EXPECT_GE(files, 2u);
}

// --- Mutator ---------------------------------------------------------------

void ExpectCanonical(const FaultPlan& plan, const chaos::MutatorOptions& opt) {
  EXPECT_LE(plan.size(), chaos::kMaxPlanEpisodes);
  for (const FaultEpisode& e : plan.episodes()) {
    EXPECT_GE(e.start, 0);
    EXPECT_LE(e.end(), opt.horizon) << fault::EpisodeToLine(e);
    EXPECT_GE(e.duration, chaos::kMinEpisodeDuration);
    EXPECT_GE(e.node, -1);
    EXPECT_LT(e.node, opt.num_nodes);
    if (e.kind == FaultKind::kNetworkDrop) {
      EXPECT_GE(e.severity, 0.05);
      EXPECT_LE(e.severity, 1.0);
    } else if (e.kind == FaultKind::kFailSlowDisk || e.kind == FaultKind::kSsdReadRetry ||
               e.kind == FaultKind::kNetworkDegrade) {
      EXPECT_GE(e.severity, 1.0);
      EXPECT_LE(e.severity, 100.0);
    }
  }
  // No same-target overlaps survive canonicalization.
  const std::vector<FaultEpisode>& episodes = plan.episodes();
  for (size_t i = 0; i < episodes.size(); ++i) {
    for (size_t j = i + 1; j < episodes.size(); ++j) {
      EXPECT_FALSE(fault::EpisodesOverlap(episodes[i], episodes[j])) << i << " vs " << j;
    }
  }
}

TEST(PlanMutatorTest, GeneratedChildrenAreAlwaysCanonical) {
  chaos::MutatorOptions opt;
  chaos::PlanMutator mutator(opt, /*seed=*/17);
  FaultPlan parent = mutator.RandomPlan();
  ExpectCanonical(parent, opt);
  FaultPlan other = mutator.RandomPlan();
  for (int i = 0; i < 200; ++i) {
    const FaultPlan child = i % 3 == 2 ? mutator.Splice(parent, other) : mutator.Mutate(parent);
    ExpectCanonical(child, opt);
    if (!child.empty()) {
      parent = child;
    }
  }
}

TEST(PlanMutatorTest, SameSeedSameChildrenDistinctSeedDistinct) {
  chaos::MutatorOptions opt;
  chaos::PlanMutator a(opt, 5);
  chaos::PlanMutator b(opt, 5);
  chaos::PlanMutator c(opt, 6);
  bool any_diff_from_c = false;
  for (int i = 0; i < 20; ++i) {
    const FaultPlan pa = a.RandomPlan();
    const FaultPlan pb = b.RandomPlan();
    const FaultPlan pc = c.RandomPlan();
    EXPECT_EQ(fault::FaultPlanToText(pa), fault::FaultPlanToText(pb)) << "draw " << i;
    any_diff_from_c = any_diff_from_c ||
                      fault::FaultPlanToText(pa) != fault::FaultPlanToText(pc);
  }
  EXPECT_TRUE(any_diff_from_c);
}

TEST(PlanMutatorTest, CanonicalizeSlidesBackEpisodesPastHorizon) {
  chaos::MutatorOptions opt;
  opt.horizon = Millis(100);
  chaos::PlanMutator mutator(opt, 1);
  FaultEpisode e;
  e.kind = FaultKind::kNodePause;
  e.node = 0;
  e.start = Millis(95);
  e.duration = Millis(40);  // Would end at 135ms.
  const FaultPlan canon = mutator.Canonicalize({e});
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon.episodes()[0].end(), Millis(100));
  EXPECT_EQ(canon.episodes()[0].duration, Millis(40));  // Slid, not truncated.
}

// --- Coverage --------------------------------------------------------------

TEST(CoverageMapTest, SecondIdenticalTrialContributesNothing) {
  const ChaosWorldOptions world;
  const chaos::TrialOutcome outcome = chaos::RunChaosTrial(world, SamplePlan());
  const std::vector<chaos::Feature> features =
      chaos::CollectFeatures(SamplePlan(), outcome.results);
  EXPECT_FALSE(features.empty());

  chaos::CoverageMap map;
  EXPECT_GT(map.CountNovel(features), 0u);
  EXPECT_GT(map.AddAll(features), 0u);
  EXPECT_EQ(map.CountNovel(features), 0u);
  EXPECT_EQ(map.AddAll(features), 0u);

  // A different plan shape contributes at least a plan-namespace feature.
  const std::vector<chaos::Feature> empty_features =
      chaos::CollectFeatures(FaultPlan(), outcome.results);
  EXPECT_GT(map.CountNovel(empty_features), 0u);
}

// --- Oracles ---------------------------------------------------------------

harness::RunResult MakeCleanResult() {
  harness::RunResult r;
  r.name = "unit";
  r.oracle.enabled = true;
  r.oracle.gets_issued = 10;
  r.oracle.gets_done = 10;
  r.oracle.done_ok = 10;
  r.max_sent_deadline = Millis(1);
  return r;
}

std::set<std::string> OracleNames(const std::vector<Violation>& v) {
  std::set<std::string> names;
  for (const Violation& x : v) {
    names.insert(x.oracle);
  }
  return names;
}

TEST(OraclesTest, CleanHarvestIsViolationFree) {
  std::vector<Violation> v;
  chaos::CheckOracles(MakeCleanResult(), /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());
}

TEST(OraclesTest, CountersTripTheirOracles) {
  harness::RunResult r = MakeCleanResult();
  r.oracle.gets_done = 9;       // completion
  r.oracle.gets_done_duplicate = 1;  // exactly_once
  r.oracle.done_ok = 7;         // conservation (7 != 9)
  r.oracle.budget_regressions = 2;   // budget_monotone
  r.unbounded_deadline_tries = 1;    // bounded_sends
  std::vector<Violation> v;
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  const std::set<std::string> names = OracleNames(v);
  EXPECT_TRUE(names.count("completion"));
  EXPECT_TRUE(names.count("exactly_once"));
  EXPECT_TRUE(names.count("conservation"));
  EXPECT_TRUE(names.count("budget_monotone"));
  EXPECT_TRUE(names.count("bounded_sends"));
}

TEST(OraclesTest, BreakerChainResetsAtSegmentBoundaries) {
  using resilience::BreakerState;
  harness::RunResult r = MakeCleanResult();
  // Two trackers (one per shard), each with a legal chain for replica 0 that
  // ends open. Concatenated WITHOUT segment info this would read
  // open -> closed->open: illegal.
  r.oracle.breaker_log = {
      {0, BreakerState::kClosed, BreakerState::kOpen, 100},
      {0, BreakerState::kClosed, BreakerState::kOpen, 150},
  };
  std::vector<Violation> v;
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_EQ(OracleNames(v).count("breaker_legal"), 1u);

  r.oracle.breaker_segments = {0, 1};
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());

  // Within one segment, an illegal edge still fires.
  r.oracle.breaker_log = {
      {0, BreakerState::kClosed, BreakerState::kOpen, 100},
      {0, BreakerState::kOpen, BreakerState::kClosed, 150},  // open->closed: illegal.
  };
  r.oracle.breaker_segments = {0};
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_EQ(OracleNames(v).count("breaker_legal"), 1u);

  // A capped-out log is skipped rather than half-checked.
  r.oracle.breaker_log_dropped = 1;
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());
}

// --- Trials, shrinking, search --------------------------------------------

TEST(ChaosTrialTest, BenignWorldHasNoViolations) {
  const ChaosWorldOptions world;
  const chaos::TrialOutcome outcome = chaos::RunChaosTrial(world, FaultPlan());
  for (const Violation& v : outcome.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.strategy << ": " << v.detail;
  }
  EXPECT_EQ(outcome.results.size(), world.strategies.size());
  EXPECT_FALSE(outcome.fingerprint.empty());
}

TEST(ChaosTrialTest, FingerprintBitIdenticalAcrossWorkerGrid) {
  std::vector<std::string> drift;
  const chaos::TrialOutcome outcome =
      chaos::RunChaosTrialOnGrid(ChaosWorldOptions(), SamplePlan(), &drift);
  EXPECT_EQ(drift, std::vector<std::string>{});
  EXPECT_FALSE(outcome.fingerprint.empty());
}

// The LSM store in the chaos world: the same two-shard recipe under a
// generated plan, with LSM nodes in place of DocStore nodes.
TEST(ChaosTrialTest, LsmWorldUnderGeneratedPlanHasNoViolations) {
  const ChaosWorldOptions world;
  fault::ChaosOptions chaos;
  chaos.network_drop = true;
  chaos.network_partition = true;
  chaos.node_crash = true;
  chaos.mean_gap = Millis(200);
  chaos.min_on = Millis(20);
  chaos.max_on = Millis(150);
  chaos.blast_radius = 1.0;
  const FaultPlan plan = fault::GenerateChaosPlan(chaos, world.num_nodes, world.horizon, 11);
  ASSERT_FALSE(plan.empty());
  std::vector<harness::Trial> trials;
  for (const harness::StrategyKind kind : world.strategies) {
    harness::Trial t{chaos::MakeExperimentOptions(world, plan), kind, ""};
    t.options.access = kv::AccessPath::kLsm;
    trials.push_back(t);
  }
  const std::vector<harness::RunResult> results = harness::RunTrialsParallel(trials);
  std::vector<Violation> violations;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].num_shards, 2);
    EXPECT_GT(results[i].fault_episodes, 0u);
    const bool resilient = world.strategies[i] == harness::StrategyKind::kMittosResilient;
    chaos::CheckOracles(results[i], resilient, /*tenants=*/false, &violations);
  }
  for (const Violation& v : violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.strategy << ": " << v.detail;
  }
}

// The acceptance demo: the planted PR-5 denied-retry hang (behind
// test_swallow_late_reply) is found by the coverage-guided search within a
// small trial budget and shrunk to a <=3-episode reproducer that still
// trips the completion oracle.
TEST(ChaosSearchTest, FindsAndShrinksPlantedLivenessBug) {
  chaos::ExplorerOptions opt;
  opt.world.inject_bug = true;
  opt.max_trials = 60;
  opt.seed = 7;
  opt.max_findings = 1;
  const chaos::SearchReport report = chaos::RunSearch(opt);
  ASSERT_EQ(report.findings.size(), 1u);
  const chaos::Finding& f = report.findings[0];
  EXPECT_EQ(f.oracle, "completion");
  EXPECT_LE(f.shrunk.size(), 3u);
  EXPECT_GT(f.shrunk.size(), 0u);

  // The minimized plan still reproduces, and does NOT fire once the bug
  // flag is dropped (the reproducer tracks the bug, not the schedule).
  chaos::ChaosWorldOptions fixed = opt.world;
  fixed.inject_bug = false;
  const chaos::TrialOutcome with_bug = chaos::RunChaosTrial(opt.world, f.shrunk);
  const chaos::TrialOutcome without = chaos::RunChaosTrial(fixed, f.shrunk);
  EXPECT_EQ(OracleNames(with_bug.violations).count("completion"), 1u);
  EXPECT_EQ(OracleNames(without.violations).count("completion"), 0u);
}

TEST(ChaosSearchTest, SearchIsDeterministic) {
  chaos::ExplorerOptions opt;
  opt.max_trials = 12;
  opt.seed = 3;
  const chaos::SearchReport a = chaos::RunSearch(opt);
  const chaos::SearchReport b = chaos::RunSearch(opt);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.coverage_features, b.coverage_features);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(ShrinkerTest, ShrunkPlanIsOneMinimal) {
  std::string error;
  CorpusEntry entry;
  ASSERT_TRUE(chaos::LoadCorpusEntry(
      std::string(MITT_TEST_DATA_DIR) + "/chaos_corpus/completion.chaos", &entry, &error))
      << error;
  ASSERT_FALSE(entry.expect.empty());
  const chaos::ShrinkResult result =
      chaos::ShrinkPlan(entry.world, entry.plan, entry.expect.front(), chaos::ShrinkOptions{});
  ASSERT_TRUE(result.reproduced);
  EXPECT_LE(result.plan.size(), entry.plan.size());
  // 1-minimality: removing any single episode stops the oracle firing.
  for (size_t skip = 0; skip < result.plan.size(); ++skip) {
    std::vector<FaultEpisode> eps;
    for (size_t i = 0; i < result.plan.size(); ++i) {
      if (i != skip) {
        eps.push_back(result.plan.episodes()[i]);
      }
    }
    const chaos::TrialOutcome outcome =
        chaos::RunChaosTrial(entry.world, FaultPlan(std::move(eps)));
    EXPECT_EQ(OracleNames(outcome.violations).count(entry.expect.front()), 0u)
        << "still fires without episode " << skip;
  }
}

// The checked-in reproducers replay exactly: expected oracles fire, nothing
// else does, and the fingerprint is grid-stable (the CI replay contract).
TEST(ChaosCorpusTest, CheckedInReproducersReplay) {
  for (const char* name : {"completion.chaos", "benign.chaos"}) {
    SCOPED_TRACE(name);
    std::string error;
    CorpusEntry entry;
    ASSERT_TRUE(chaos::LoadCorpusEntry(
        std::string(MITT_TEST_DATA_DIR) + "/chaos_corpus/" + name, &entry, &error))
        << error;
    std::vector<std::string> drift;
    const chaos::TrialOutcome outcome = chaos::RunChaosTrialOnGrid(entry.world, entry.plan, &drift);
    EXPECT_EQ(drift, std::vector<std::string>{});
    EXPECT_EQ(OracleNames(outcome.violations),
              std::set<std::string>(entry.expect.begin(), entry.expect.end()));
  }
}

}  // namespace
}  // namespace mitt
