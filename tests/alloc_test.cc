// Steady-state allocation gating for the per-IO pipeline, the rebuilt
// PageCache and the whole closed-loop Get path: after a warmup phase that
// grows every pool/table to its working size, driving more IOs through a
// full Os stack (or more touches through the cache) must perform ZERO heap
// allocations, and a whole Experiment must allocate (almost) nothing per
// extra Get. bench_hotpath and perfbench report the same counters; this
// binary fails the build if they regress.
//
// The counting operator new/delete (src/common/alloc_hook.h) conflicts with
// sanitizer interceptors, and the MITT_PREDICT_CHECK oracle allocates map
// nodes per IO by design — in those builds the assertions are skipped.

#include <gtest/gtest.h>

#include "src/common/alloc_hook.h"

#if MITT_ALLOC_HOOKS

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/harness/experiment.h"
#include "src/lsm/lsm_tree.h"
#include "src/obs/metrics.h"
#include "src/os/os.h"
#include "src/os/page_cache.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/tenant/placement.h"
#include "src/tenant/tenant.h"
#include "src/tenant/workload.h"
#include "src/trace/cursor.h"
#include "src/trace/replay.h"
#include "src/trace/writer.h"

namespace mitt::harness {
// Parameterized cases print, and so are named, by strategy.
void PrintTo(StrategyKind kind, std::ostream* os) { *os << StrategyKindName(kind); }
}  // namespace mitt::harness

namespace mitt {
namespace {

// Closed-loop client: reissues on every completion. The callbacks capture a
// single pointer, so neither std::function nor InlineFunction allocates.
struct Stream {
  os::Os* o = nullptr;
  Rng rng{1};
  uint64_t file = 0;
  int64_t pages = 0;
  int32_t pid = 0;
  DurationNs deadline = sched::kNoDeadline;
  bool bypass = false;
  uint64_t* total = nullptr;

  void Issue() {
    if (!bypass && rng.Bernoulli(0.03)) {
      os::Os::WriteArgs w;
      w.file = file;
      w.offset = rng.UniformInt(0, pages - 1) * 4096;
      w.size = 4096;
      w.pid = pid;
      o->Write(w, [this](Status, DurationNs) { Done(); });
      return;
    }
    os::Os::ReadArgs a;
    a.file = file;
    a.offset = rng.UniformInt(0, pages - 1) * 4096;
    a.size = 4096;
    a.pid = pid;
    a.deadline = deadline;
    a.bypass_cache = bypass;
    o->ReadWithWaitHint(a, [this](Status, DurationNs) { Done(); });
  }
  void Done() {
    ++*total;
    Issue();
  }
};

// Runs `steady_ios` IOs after a `warmup_ios` warmup and returns the number
// of heap allocations in the steady phase.
uint64_t SteadyAllocs(os::BackendKind backend, uint64_t warmup_ios, uint64_t steady_ios) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = backend;
  opt.seed = 7;
  opt.cache.capacity_pages = 4096;  // 16 MiB cache over a 64 MiB file.
  os::Os osys(&sim, opt);

  const int64_t file_bytes = 64LL * 1024 * 1024;
  const uint64_t file = osys.CreateFile(file_bytes);
  osys.Prefault(file, 0, file_bytes / 4);

  uint64_t total = 0;
  std::vector<std::unique_ptr<Stream>> streams;
  const DurationNs dl = backend == os::BackendKind::kSsd ? Millis(2) : Millis(20);
  for (int i = 0; i < 6; ++i) {
    auto s = std::make_unique<Stream>();
    s->o = &osys;
    s->rng = Rng(31 + static_cast<uint64_t>(i));
    s->file = file;
    s->pages = file_bytes / 4096;
    s->pid = 1 + i;
    s->total = &total;
    if (i == 5) {
      s->bypass = true;  // O_DIRECT tenant: keeps the device path hot.
    } else if (i < 3) {
      s->deadline = dl;  // SLO clients: exercises reject + tolerance wheel.
    }
    streams.push_back(std::move(s));
  }
  for (auto& s : streams) {
    s->Issue();
  }
  // Warm up by IO count *and* simulated time: the background flush fires
  // every kFlushInterval, and its batch submission sets the device queues'
  // high-water marks — several flush cycles must land inside warmup.
  const TimeNs warm_until = os::kFlushInterval * 6;
  sim.RunUntilPredicate(
      [&total, warmup_ios, &sim, warm_until] { return total >= warmup_ios && sim.Now() >= warm_until; });

  const uint64_t target = total + steady_ios;
  const uint64_t before = AllocCount();
  sim.RunUntilPredicate([&total, target] { return total >= target; });
  return AllocCount() - before;
}

#ifdef MITT_PREDICT_CHECK
#define MITT_SKIP_UNDER_PREDICT_CHECK() \
  GTEST_SKIP() << "MITT_PREDICT_CHECK oracles allocate per IO by design"
#else
#define MITT_SKIP_UNDER_PREDICT_CHECK() (void)0
#endif

TEST(SteadyStateAllocTest, DiskCfqPipelineIsAllocationFree) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  EXPECT_EQ(SteadyAllocs(os::BackendKind::kDiskCfq, 30'000, 30'000), 0u);
}

TEST(SteadyStateAllocTest, DiskNoopPipelineIsAllocationFree) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  EXPECT_EQ(SteadyAllocs(os::BackendKind::kDiskNoop, 30'000, 30'000), 0u);
}

TEST(SteadyStateAllocTest, SsdPipelineIsAllocationFree) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  EXPECT_EQ(SteadyAllocs(os::BackendKind::kSsd, 30'000, 30'000), 0u);
}

TEST(SteadyStateAllocTest, CrossShardMailboxIsAllocationFree) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // Steady-state cross-shard traffic: Post -> mailbox row -> sorted drain ->
  // ScheduleAt -> RunWindow -> Post again. After warmup grows every mailbox
  // row, the drain scratch, the ready list, and the per-shard event arenas to
  // their working size, each further bounce must allocate nothing. The
  // closure captures two pointers, inside InlineFunction's SBO.
  sim::ShardedEngine::Options eopt;
  eopt.num_shards = 2;
  eopt.lookahead = Micros(50);
  eopt.workers = 2;          // Exercise the pool barrier, not just the inline path.
  eopt.rebalance_period = 4;  // Aggressive cadence: LPT repacks are steady-state too.
  sim::ShardedEngine engine(eopt);

  uint64_t bounces = 0;
  // Self-scheduling ping-pong chains; `next` alternates 0 <-> 1, so every
  // window moves messages across both mailbox rows.
  std::function<void(int)> bounce = [&](int dst) {
    ++bounces;
    const int next = 1 - dst;
    engine.Post(next, engine.shard(dst)->Now() + Micros(50), [&bounce, next] { bounce(next); });
  };
  for (int chain = 0; chain < 8; ++chain) {
    const int start = chain & 1;
    engine.shard(start)->ScheduleAt(Micros(10) * (chain + 1),
                                    [&bounce, start] { bounce(start); });
  }

  const uint64_t kWarmup = 20'000;
  engine.RunUntilPredicate([&bounces] { return bounces >= kWarmup; });

  const uint64_t target = bounces + 20'000;
  const uint64_t before = AllocCount();
  engine.RunUntilPredicate([&bounces, target] { return bounces >= target; });
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_GE(engine.cross_shard_messages(), kWarmup + 20'000);
}

TEST(SteadyStateAllocTest, FusionFastPathIsAllocationFree) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // Quiet-frontier regime: one shard self-chains with gaps below the
  // lookahead, so it is the lone shard under the window horizon and the
  // engine's fused fast path carries the run — with a cross-shard hop every
  // 64 links so the drain fallback, the pool barrier, and the adaptive
  // repack all stay in the steady-state loop. Every path must allocate
  // nothing once warm.
  sim::ShardedEngine::Options eopt;
  eopt.num_shards = 4;
  eopt.lookahead = Micros(100);
  eopt.workers = 2;
  eopt.rebalance_period = 8;
  eopt.fusion = 1;
  sim::ShardedEngine engine(eopt);

  uint64_t links = 0;
  std::function<void(int)> link = [&](int shard) {
    ++links;
    auto* sim = engine.shard(shard);
    if (links % 64 == 0) {
      const int dst = (shard + 1) % 4;
      engine.Post(dst, sim->Now() + Micros(120), [&link, dst] { link(dst); });
    } else {
      sim->ScheduleAt(sim->Now() + Micros(20), [&link, shard] { link(shard); });
    }
  };
  engine.shard(1)->ScheduleAt(Micros(5), [&link] { link(1); });

  const uint64_t kWarmup = 20'000;
  engine.RunUntilPredicate([&links] { return links >= kWarmup; });

  const uint64_t target = links + 20'000;
  const uint64_t fused_before = engine.fused_windows();
  const uint64_t before = AllocCount();
  engine.RunUntilPredicate([&links, target] { return links >= target; });
  EXPECT_EQ(AllocCount() - before, 0u);
  // ~5 links land in each 100µs window, so 20k links span ~4k windows —
  // nearly all of them fused (the only fallbacks are the hop windows).
  EXPECT_GT(engine.fused_windows() - fused_before, 2'000u)
      << "the measured phase must actually run through the fast path";
}

TEST(SteadyStateAllocTest, TraceReplayHotLoopIsAllocationFree) {
  // Steady-state replay = cursor advance (block decode into reused scratch)
  // + one self-rescheduling ScheduleAt (captures only `this`, inside
  // InlineFunction's SBO) + the dispatch call. After the first block is
  // decoded and the sim's event pool has grown, every further arrival —
  // including block boundaries — must allocate nothing.
  const std::string path = "alloc_test_replay.mitttrace";
  {
    std::string error;
    auto writer = trace::TraceWriter::Open(path, {}, &error);
    ASSERT_NE(writer, nullptr) << error;
    trace::TraceEvent event;
    for (uint64_t i = 0; i < 60'000; ++i) {
      event.at = static_cast<TimeNs>(i) * Micros(2);
      event.offset = static_cast<int64_t>((i * 29) % 4096) * 4096;
      event.stream = static_cast<uint32_t>(i % 5);
      event.op = (i % 7 == 0) ? trace::kOpWrite : trace::kOpRead;
      ASSERT_TRUE(writer->Append(event));
    }
    ASSERT_TRUE(writer->Finish()) << writer->error();
  }

  sim::Simulator sim;
  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;
  uint64_t dispatched = 0;
  trace::TraceReplayDriver driver(&sim, cursor.get(), {},
                                  [&dispatched](const trace::TraceEvent&, uint64_t, bool) {
                                    ++dispatched;
                                  });
  driver.Start();

  // Warm past several block boundaries (4096-record blocks).
  sim.RunUntilPredicate([&dispatched] { return dispatched >= 10'000; });

  const uint64_t target = dispatched + 40'000;
  const uint64_t before = AllocCount();
  sim.RunUntilPredicate([&dispatched, target] { return dispatched >= target; });
  EXPECT_EQ(AllocCount() - before, 0u);
  std::remove(path.c_str());
}

TEST(SteadyStateAllocTest, TenantLookupAndDriverHotLoopIsAllocationFree) {
  // The per-request tenant path: the tenant cursor's weighted draw and the
  // replay driver's ScheduleAt, then the directory lookups
  // (class/SLO/priority) and the placement-group read every routed get
  // performs, plus the per-tenant counter bump the node does. After the
  // cursor's prefix-sum table and the sim's event pool are warm, none of it
  // may allocate.
  tenant::MixOptions mix;
  mix.num_tenants = 256;
  mix.total_rate_hz = 400'000;  // Dense arrivals: ~40k in the steady window.
  const tenant::TenantDirectory directory = tenant::TenantDirectory::BuildMix(mix);
  const tenant::PlacementMap placement = tenant::PlacementMap::Uniform(256, 8, 3, 9);
  std::vector<uint64_t> tenant_gets(directory.num_tenants(), 0);

  sim::Simulator sim;
  uint64_t dispatched = 0;
  DurationNs slo_sum = 0;
  int64_t node_sum = 0;
  tenant::TenantArrivalCursor cursor(&directory, /*end=*/Millis(1) + Seconds(2), /*shard=*/0,
                                     /*num_shards=*/1, /*seed=*/3);
  trace::TraceReplayDriver driver(
      &sim, &cursor, {}, [&](const trace::TraceEvent& event, uint64_t, bool) {
        const tenant::TenantId t = event.stream;
        const uint64_t key = static_cast<uint64_t>(event.offset) >> 12;
        slo_sum += directory.slo_of(t) + directory.priority_of(t);
        const tenant::ReplicaGroup g = placement.group(t);
        for (int r = 0; r < g.size; ++r) {
          node_sum += g.node[r];
        }
        ++tenant_gets[t];
        dispatched += (key != ~0ULL) ? 1 : 0;
      });
  driver.Start();

  sim.RunUntilPredicate([&dispatched] { return dispatched >= 10'000; });

  const uint64_t target = dispatched + 40'000;
  const uint64_t before = AllocCount();
  sim.RunUntilPredicate([&dispatched, target] { return dispatched >= target; });
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_GT(slo_sum, 0);
  EXPECT_GT(node_sum, 0);
}

TEST(SteadyStateAllocTest, PageCacheHotOpsAreAllocationFree) {
  // Warm the table to its steady size (at capacity, so the first victim
  // batch has been collected), then hammer every hot operation. About half
  // the inserts miss and evict, so the victim batch (an eighth of the
  // resident pages) is refilled dozens of times in the measured phase, and
  // the occasional EvictFraction collects every page: both reuse the batch
  // buffer's capacity.
  os::PageCacheParams params;
  params.capacity_pages = 1024;
  os::PageCache cache(params);
  Rng rng(5);
  const int64_t span = 4 * static_cast<int64_t>(params.capacity_pages);
  for (int i = 0; i < 20'000; ++i) {
    cache.Insert(1, rng.UniformInt(0, span - 1) * os::kPageSize, os::kPageSize);
  }
  ASSERT_EQ(cache.resident_pages(), params.capacity_pages);

  const uint64_t before = AllocCount();
  for (int i = 0; i < 50'000; ++i) {
    const int64_t off = rng.UniformInt(0, span - 1) * os::kPageSize;
    switch (i & 3) {
      case 0:
        cache.Insert(1, off, os::kPageSize);
        break;
      case 1:
        cache.Touch(1, off, os::kPageSize);
        break;
      case 2:
        (void)cache.Resident(1, off, os::kPageSize);
        break;
      case 3:
        if ((i & 4095) == 3) {
          cache.EvictFraction(0.1, rng);
        } else if ((i & 63) == 3) {
          cache.EvictRange(1, off, os::kPageSize);
        } else {
          cache.Insert(1, off, os::kPageSize);
        }
        break;
    }
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST(SteadyStateAllocTest, PageCacheFirstTableHoldsTwoToTheFifteenPages) {
  // A default-capacity cache (2^20 pages) sizes its first table for what it
  // holds, 2^16 slots, not for its capacity: the first 2^15 distinct pages,
  // inserted one at a time as a cold Os fills them, cost that one
  // allocation and no doubling.
  os::PageCache cache(os::PageCacheParams{});
  const uint64_t before = AllocCount();
  const uint64_t bytes_before = AllocBytes();
  for (int64_t page = 0; page < (1 << 15); ++page) {
    cache.Insert(1, page * os::kPageSize, os::kPageSize);
  }
  EXPECT_EQ(AllocCount() - before, 1u);
  EXPECT_LE(AllocBytes() - bytes_before, uint64_t{16} << 16);  // 16-byte slots.
  EXPECT_EQ(cache.resident_pages(), size_t{1} << 15);
}

TEST(SteadyStateAllocTest, MetricLookupByNameIsAllocationFree) {
  // Client backoff, breakers, shedding and faults look counters up by name
  // on every event; names longer than the string's inline buffer must not
  // cost an allocation once the metric exists.
  obs::MetricsRegistry metrics;
  metrics.counter("resilience_retry_denied_total", 2);
  metrics.gauge("a_gauge_with_a_long_name", 2);
  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    metrics.counter("resilience_retry_denied_total", 2).Add();
    metrics.gauge("a_gauge_with_a_long_name", 2).Add(1.0);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_EQ(metrics.CounterValue("resilience_retry_denied_total", 2), 1000u);
}

// An LSM compaction merges every input key, so its cost must scale with
// the output tables, not the keys: a node-based merge would make about one
// allocation per bulk-loaded key. Counted from the first put (96 puts of a
// 32 KB memtable fill the three L0 tables that trigger it) until the
// compaction starts.
TEST(LsmCompactionAllocTest, FirstCompactionAllocatesPerTableNotPerKey) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  constexpr uint64_t kBulkKeys = uint64_t{1} << 16;
  sim::Simulator sim;
  os::OsOptions oopt;
  oopt.backend = os::BackendKind::kDiskCfq;
  oopt.mitt_enabled = false;
  os::Os osys(&sim, oopt);
  lsm::LsmTree::Options lopt;
  lopt.memtable_flush_bytes = 32 << 10;
  lopt.l0_compaction_trigger = 3;
  lsm::LsmTree tree(&sim, &osys, lopt);
  std::vector<uint64_t> keys(kBulkKeys);
  for (uint64_t i = 0; i < kBulkKeys; ++i) {
    keys[i] = 2 * i;
  }
  tree.BulkLoad(keys);

  // One closed-loop writer of new (odd) keys; it stops once the compaction
  // has started.
  struct Writer {
    lsm::LsmTree* tree;
    uint64_t key = 1;
    uint64_t puts = 0;
    void Put() {
      ++puts;
      tree->Put(key, [this](Status, DurationNs) {
        if (!tree->compaction_running()) {
          Put();
        }
      });
      key += 2;
    }
  };
  Writer writer{&tree};
  const uint64_t before = AllocCount();
  writer.Put();
  sim.RunUntilPredicate([&tree] { return tree.compaction_running(); });
  const uint64_t allocs = AllocCount() - before;
  ASSERT_TRUE(tree.compaction_running());
  EXPECT_EQ(writer.puts, 96u);
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(kBulkKeys), 0.01)
      << allocs << " allocations";
}

// --- Full-Experiment gates ------------------------------------------------
//
// One Experiment::Run (world build, closed-loop drive, harvest, teardown) at
// n and at 2n Gets: everything one-time — the world, pool and recorder
// growth — cancels in the difference, which leaves the marginal cost of n
// Gets on the client -> network -> CPU pool -> DocStore -> Os path.

using harness::ExperimentOptions;
using harness::StrategyKind;

constexpr size_t kGateGets = 3000;
constexpr double kMaxAllocsPerGet = 0.01;

uint64_t RunAllocs(const ExperimentOptions& o, StrategyKind kind) {
  harness::Experiment experiment(o);
  const uint64_t before = AllocCount();
  {
    const harness::RunResult r = experiment.Run(kind);
    EXPECT_EQ(r.oracle.enabled, o.harvest_oracles);
  }
  return AllocCount() - before;
}

// Marginal heap allocations per Get between kGateGets and 2 * kGateGets.
double MarginalAllocsPerGet(ExperimentOptions o, StrategyKind kind) {
  o.intra_workers = 1;
  auto set_gets = [&o](size_t n) {
    if (o.replay.enabled()) {
      o.replay.max_events = o.replay.warmup_events + n;
    } else {
      o.measure_requests = n;
    }
  };
  set_gets(kGateGets);
  const uint64_t once = RunAllocs(o, kind);
  set_gets(2 * kGateGets);
  const uint64_t twice = RunAllocs(o, kind);
  return (static_cast<double>(twice) - static_cast<double>(once)) /
         static_cast<double>(kGateGets);
}

ExperimentOptions GateWorld() {
  ExperimentOptions o;
  o.num_nodes = 6;
  o.num_clients = 6;
  o.warmup_requests = 200;
  o.num_keys_per_node = 1 << 16;
  o.deadline = Millis(20);
  o.hedge_delay = Millis(20);
  o.app_timeout = Millis(20);
  o.seed = 11;
  return o;
}

// Fig. 5's path: disk + MittCFQ, read() with a deadline, EC2 read noise.
ExperimentOptions DiskCfqEc2World() {
  ExperimentOptions o = GateWorld();
  o.backend = os::BackendKind::kDiskCfq;
  o.access = kv::AccessPath::kRead;
  o.noise = harness::NoiseKind::kEc2;
  o.ec2 = harness::CompressedEc2Noise();
  return o;
}

// Every strategy keeps its per-Get state in GetStrategy's pooled record, so
// none of the nine allocates per Get.
class GetPathAllocPerStrategyTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(GetPathAllocPerStrategyTest, DiskCfqWithEc2Noise) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  EXPECT_LE(MarginalAllocsPerGet(DiskCfqEc2World(), GetParam()), kMaxAllocsPerGet);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, GetPathAllocPerStrategyTest,
                         ::testing::Values(StrategyKind::kBase, StrategyKind::kAppTimeout,
                                           StrategyKind::kClone, StrategyKind::kHedged,
                                           StrategyKind::kSnitch, StrategyKind::kC3,
                                           StrategyKind::kMittos, StrategyKind::kMittosWait,
                                           StrategyKind::kMittosResilient));

// §5's LevelDB path: the lookup finds the one table holding the key without
// IO and hands the get's callback straight to the block read.
class GetPathAllocLsmTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(GetPathAllocLsmTest, DiskCfqWithEc2Noise) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  ExperimentOptions o = DiskCfqEc2World();
  o.access = kv::AccessPath::kLsm;
  EXPECT_LE(MarginalAllocsPerGet(o, GetParam()), kMaxAllocsPerGet);
}

INSTANTIATE_TEST_SUITE_P(LsmStrategies, GetPathAllocLsmTest,
                         ::testing::Values(StrategyKind::kBase, StrategyKind::kMittos,
                                           StrategyKind::kMittosResilient));

TEST(GetPathAllocTest, MittosMmapAddrCheckWithCacheDrops) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // Fig. 7's path: AddrCheck + MmapAccess over a warm cache, hits and fills.
  ExperimentOptions o = GateWorld();
  o.access = kv::AccessPath::kMmapAddrCheck;
  o.num_keys_per_node = 1 << 14;
  o.cache_pages = 1 << 15;
  o.warm_fraction = 1.0;
  o.noise = harness::NoiseKind::kStaticCacheDrop;
  o.cache_drop_fraction = 0.16;
  o.deadline = Micros(100);
  EXPECT_LE(MarginalAllocsPerGet(o, StrategyKind::kMittos), kMaxAllocsPerGet);
}

TEST(GetPathAllocTest, ResilientSsdOnSharedCpuPool) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // Fig. 8's path: SSD under write noise, every node on one 8-core pool,
  // breaker ordering on every Get.
  ExperimentOptions o = GateWorld();
  o.num_clients = 8;
  o.shared_cpu_cores = 8;
  o.handler_cpu = Micros(400);
  o.backend = os::BackendKind::kSsd;
  o.noise = harness::NoiseKind::kEc2;
  o.ec2 = harness::CompressedEc2Noise();
  o.noise_op = sched::IoOp::kWrite;
  o.noise_io_size = 256 << 10;
  o.deadline = Micros(830);
  EXPECT_LE(MarginalAllocsPerGet(o, StrategyKind::kMittosResilient), kMaxAllocsPerGet);
}

TEST(GetPathAllocTest, TwoShardMittos) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // Replies cross shards through the engine's mailboxes.
  ExperimentOptions o = GateWorld();
  o.num_nodes = 8;
  o.num_clients = 16;
  o.num_shards = 2;
  o.backend = os::BackendKind::kSsd;
  o.warm_fraction = 0.5;
  o.cache_pages = 1 << 14;
  o.noise = harness::NoiseKind::kNone;
  o.deadline = Millis(2);
  EXPECT_LE(MarginalAllocsPerGet(o, StrategyKind::kMittos), kMaxAllocsPerGet);
}

TEST(GetPathAllocTest, OracleHarvestOnResilientMittos) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // The chaos search's harvest: each driver completion counts its get's
  // completions itself, and the breaker transition log is on.
  ExperimentOptions o = DiskCfqEc2World();
  o.harvest_oracles = true;
  EXPECT_LE(MarginalAllocsPerGet(o, StrategyKind::kMittosResilient), kMaxAllocsPerGet);
}

TEST(GetPathAllocTest, OpenLoopReplay) {
  MITT_SKIP_UNDER_PREDICT_CHECK();
  // The replay completion captures ~40 B: inside GetDoneFn's inline buffer.
  ExperimentOptions o = GateWorld();
  o.num_clients = 0;
  o.backend = os::BackendKind::kSsd;
  o.noise = harness::NoiseKind::kNone;
  o.deadline = Millis(2);
  o.replay.synthetic_profile = 0;
  o.replay.synthetic_duration = Seconds(30);
  o.replay.warmup_events = 200;
  EXPECT_LE(MarginalAllocsPerGet(o, StrategyKind::kMittos), kMaxAllocsPerGet);
}

}  // namespace
}  // namespace mitt

#else  // !MITT_ALLOC_HOOKS

TEST(SteadyStateAllocTest, SkippedUnderSanitizers) {
  GTEST_SKIP() << "operator new/delete hooks conflict with sanitizer interceptors";
}

#endif  // MITT_ALLOC_HOOKS
