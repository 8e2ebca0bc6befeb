// Golden RunResult fingerprints of seventeen small one-shard Experiment worlds.
//
// Every paper figure runs on one shard, so these pin the 1-shard schedule end
// to end: requests, executed events, simulated duration and noise IOs;
// EBUSY, timeout and degraded counts; get and user percentiles; tenant
// class stats, fault episodes, oracle counts and breaker-log length; a hash
// of the traced run's spans; and the checksum of a recorded trace file. A
// change to the request driver or the engine that moves any of them would
// move a figure. On an intended behaviour change, the failure message
// prints the new fingerprint to paste in.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/obs/gate.h"

namespace mitt {
namespace {

using harness::ExperimentOptions;
using harness::NoiseKind;
using harness::RunResult;
using harness::StrategyKind;

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xCBF2'9CE4'8422'2325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100'0000'01B3ULL;
  }
  return h;
}

uint64_t FnvWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100'0000'01B3ULL;
  }
  return h;
}

std::string FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::ostringstream s;
  s << bytes.size() << ":" << std::hex << Fnv1a(bytes);
  return s.str();
}

void Percentiles(std::ostringstream& s, const LatencyRecorder& rec) {
  s << rec.count() << "," << rec.Percentile(50) << "," << rec.Percentile(99) << ","
    << rec.Percentile(99.9);
}

std::string Pin(const RunResult& r) {
  std::ostringstream s;
  s << "req=" << r.requests << " ev=" << r.sim_events << " dur=" << r.sim_duration
    << " noise=" << r.noise_ios << " ebusy=" << r.ebusy_failovers << " to=" << r.timeouts_fired
    << " hedge=" << r.hedges_sent << " deg=" << r.degraded_gets << " err=" << r.user_errors
    << " get=";
  Percentiles(s, r.get_latencies);
  s << " user=";
  Percentiles(s, r.user_latencies);
  if (r.replay_events != 0) {
    s << " replay=" << r.replay_events << "," << r.replay_trace_reads;
  }
  for (const harness::TenantClassStats& c : r.tenant_classes) {
    s << " " << c.name << "=" << c.tenants << "," << c.requests << "," << c.deadline_miss << ","
      << c.failovers << "," << c.errors << "," << c.latencies.Percentile(99);
  }
  if (!r.tenant_classes.empty()) {
    s << " ctl=" << r.tenant_migrations << "," << r.controller_ticks << ","
      << r.controller_hot_ticks;
  }
  s << " faults=" << r.fault_episodes << "," << r.fault_skipped << "," << r.fault_log.size();
  if (r.oracle.enabled) {
    const harness::OracleHarvest& o = r.oracle;
    s << " oracle=" << o.gets_issued << "," << o.gets_done << "," << o.gets_done_duplicate << ","
      << o.done_ok << "," << o.done_busy << "," << o.done_exhausted << "," << o.done_error
      << " breaker=" << o.breaker_log.size() << "," << o.breaker_segments.size()
      << " placement=" << o.placement_ok;
  }
#if MITT_OBS_ENABLED
  if (!r.trace_spans.empty()) {
    uint64_t h = Fnv1a("");
    for (const obs::SpanRecord& span : r.trace_spans) {
      h = FnvWord(h, span.request_id);
      h = FnvWord(h, static_cast<uint64_t>(span.begin));
      h = FnvWord(h, static_cast<uint64_t>(span.end));
      h = FnvWord(h, static_cast<uint64_t>(span.node));
      h = FnvWord(h, static_cast<uint64_t>(span.kind));
    }
    s << " spans=" << r.trace_spans.size() << ":" << std::hex << h;
  }
#endif
  return s.str();
}

// A six-node closed-loop world, sized so each run takes tens of milliseconds.
ExperimentOptions Small() {
  ExperimentOptions o;
  o.num_nodes = 6;
  o.num_clients = 6;
  o.measure_requests = 2000;
  o.warmup_requests = 100;
  o.num_keys_per_node = 1 << 14;
  o.cache_pages = 1 << 10;
  o.deadline = Millis(13);
  o.hedge_delay = Millis(13);
  o.app_timeout = Millis(13);
  o.noise = NoiseKind::kEc2;
  o.ec2 = harness::CompressedEc2Noise();
  o.ec2.mean_off = Millis(300);  // Episodes within the ~2 s run.
  o.noise_horizon = Seconds(20);
  o.seed = 1217;
  return o;
}

ExperimentOptions SmallTenants(bool slo_aware) {
  ExperimentOptions o = Small();
  o.num_nodes = 4;
  o.num_clients = 0;
  o.backend = os::BackendKind::kSsd;
  o.num_keys_per_node = 1 << 12;
  o.warm_fraction = 1.0;
  o.noise = NoiseKind::kContinuous;  // Node 0 under contention.
  o.continuous_intensity = 4;
  o.deadline = Millis(20);
  o.tenants.enabled = true;
  o.tenants.mix.num_tenants = 120;
  o.tenants.mix.total_rate_hz = 4000;
  o.tenants.slo_aware = slo_aware;
  o.tenants.warmup = Millis(50);
  o.tenants.duration = Millis(400);
  return o;
}

fault::FaultPlan ChaosPlan() {
  fault::ChaosOptions chaos;
  chaos.network_drop = true;
  chaos.network_partition = true;
  chaos.node_crash = true;
  chaos.mean_gap = Millis(400);
  chaos.min_on = Millis(50);
  chaos.max_on = Millis(300);
  chaos.blast_radius = 0.5;
  return fault::GenerateChaosPlan(chaos, 6, Seconds(2), /*seed=*/5);
}

RunResult RunOneShard(const ExperimentOptions& options, StrategyKind kind) {
  harness::Experiment experiment(options);
  RunResult r = experiment.Run(kind);
  EXPECT_EQ(r.num_shards, 1);
  EXPECT_EQ(r.engine_windows, 0u);
  EXPECT_TRUE(r.critical_path.empty());
  return r;
}

std::string Probe(const ExperimentOptions& options, StrategyKind kind) {
  std::string fp = Pin(RunOneShard(options, kind));
  if (!options.record_trace_path.empty()) {
    fp += " file=" + FileChecksum(options.record_trace_path);
    std::remove(options.record_trace_path.c_str());
  }
  return fp;
}

TEST(OneShardGoldenTest, ClosedLoopDisk) {
  EXPECT_EQ(Probe(Small(), StrategyKind::kBase),
            "req=2100 ev=15476 dur=5497999647 noise=1414 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=2000,5721601,86815192,100049774 user=2000,5721601,86815192,100049774 "
            "faults=0,0,0");
}

TEST(OneShardGoldenTest, SharedCpuSsdWithOracles) {
  ExperimentOptions o = Small();
  o.backend = os::BackendKind::kSsd;
  o.shared_cpu_cores = 4;
  o.cpu_cores = 4;
  o.handler_cpu = Micros(400);
  o.deadline = Micros(900);
  o.noise_op = sched::IoOp::kWrite;
  o.noise_io_size = 256 << 10;
  o.harvest_oracles = true;
  EXPECT_EQ(Probe(o, StrategyKind::kMittosResilient),
            "req=2100 ev=59322 dur=312240266 noise=1267 ebusy=116 to=0 hedge=0 deg=14 err=0 "
            "get=2000,808283,1908189,3279236 user=2000,808283,1908189,3279236 faults=0,0,0 "
            "oracle=2100,2100,0,2100,0,0,0 breaker=0,0 placement=1");
}

// Every node under continuous contention, so most Gets find all three
// replicas busy: the world that pins each MittOS preset's all-busy exit.
// MittOS sends its last replica unbounded, MittOS+wait sends one unbounded
// try to the min-hint replica, and MittOS+res walks the bounded degraded path.
TEST(OneShardGoldenTest, AllBusyAcrossMittosPresets) {
  ExperimentOptions o = Small();
  o.noise = NoiseKind::kContinuous;
  o.continuous_all_nodes = true;
  o.continuous_intensity = 3;
  const RunResult mittos = RunOneShard(o, StrategyKind::kMittos);
  EXPECT_EQ(Pin(mittos),
            "req=2100 ev=53028 dur=20275394092 noise=10797 ebusy=3734 to=0 hedge=0 deg=0 err=0 "
            "get=2000,65476907,79011685,83366484 user=2000,65476907,79011685,83366484 "
            "faults=0,0,0");
  EXPECT_EQ(mittos.unbounded_deadline_tries, 1867u);
  EXPECT_EQ(mittos.max_sent_deadline, 0);
  const RunResult wait = RunOneShard(o, StrategyKind::kMittosWait);
  EXPECT_EQ(Pin(wait),
            "req=2100 ev=62558 dur=20222196259 noise=10773 ebusy=5651 to=0 hedge=0 deg=0 err=0 "
            "get=2000,63611953,76600898,81316708 user=2000,63611953,76600898,81316708 "
            "faults=0,0,0");
  EXPECT_EQ(wait.unbounded_deadline_tries, 1860u);
  EXPECT_EQ(wait.max_sent_deadline, 0);
  const RunResult res = RunOneShard(o, StrategyKind::kMittosResilient);
  EXPECT_EQ(Pin(res),
            "req=2100 ev=62561 dur=20216874019 noise=10776 ebusy=5651 to=0 hedge=0 deg=1859 "
            "err=0 get=2000,63659216,76914322,83027172 user=2000,63659216,76914322,83027172 "
            "faults=0,0,0");
  EXPECT_EQ(res.unbounded_deadline_tries, 0u);
  EXPECT_EQ(res.max_sent_deadline, 79053281);
}

TEST(OneShardGoldenTest, MmapAddrCheck) {
  ExperimentOptions o = Small();
  o.access = kv::AccessPath::kMmapAddrCheck;
  o.num_keys_per_node = 1 << 12;
  o.cache_pages = 1 << 13;
  o.warm_fraction = 1.0;
  o.noise = NoiseKind::kStaticCacheDrop;
  o.cache_drop_fraction = 0.16;
  o.deadline = Millis(2);  // Disk fills of dropped pages reject.
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=2100 ev=13534 dur=249782874 noise=0 ebusy=136 to=0 hedge=0 deg=0 err=0 "
            "get=2000,332577,6194429,29560651 user=2000,332577,6194429,29560651 faults=0,0,0");
}

TEST(OneShardGoldenTest, ChaosPlanAcrossStrategies) {
  ExperimentOptions o = Small();
  o.fault_plan = ChaosPlan();
  o.harvest_oracles = true;
  EXPECT_EQ(Probe(o, StrategyKind::kBase),
            "req=2100 ev=16320 dur=6856601208 noise=1706 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=2000,5836904,204441138,411829816 user=2000,5836904,204441138,411829816 "
            "faults=51,0,51 oracle=2100,2100,0,2100,0,0,0 breaker=0,0 placement=1");
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=2100 ev=19825 dur=4599816184 noise=1185 ebusy=919 to=0 hedge=0 deg=0 err=0 "
            "get=2000,5980485,181442261,497281703 user=2000,5980485,181442261,497281703 "
            "faults=51,0,51 oracle=2100,2100,0,2100,0,0,0 breaker=0,0 placement=1");
  EXPECT_EQ(Probe(o, StrategyKind::kMittosResilient),
            "req=2100 ev=19922 dur=4630149971 noise=1202 ebusy=845 to=84 hedge=0 deg=151 "
            "err=0 get=2000,6475600,168132460,533837726 user=2000,6475600,168132460,533837726 "
            "faults=51,0,51 oracle=2100,2100,0,2100,0,0,0 breaker=225,1 placement=1");
}

TEST(OneShardGoldenTest, FixedFaultPlan) {
  ExperimentOptions o = Small();
  o.fault_plan = fault::FaultPlanBuilder()
                     .FailSlowDisk(0, Millis(100), Millis(400), 4.0)
                     .NetworkPartition(1, Millis(150), Millis(200))
                     .NodePause(2, Millis(200), Millis(120))
                     .NetworkDrop(-1, Millis(300), Millis(100), 0.2)
                     .NodeCrashRestart(3, Millis(400), Millis(250))
                     .Build();
  EXPECT_EQ(Probe(o, StrategyKind::kAppTimeout),
            "req=2100 ev=22137 dur=4842353896 noise=1076 ebusy=0 to=1053 hedge=0 deg=0 err=0 "
            "get=2000,7063940,83121048,243579090 user=2000,7063940,83121048,243579090 "
            "faults=5,0,5");
}

TEST(OneShardGoldenTest, TenantsWithController) {
  ExperimentOptions o = SmallTenants(/*slo_aware=*/true);
  o.harvest_oracles = true;
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=1787 ev=255391 dur=450308743 noise=1848 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=1607,425367,1479298,2199655 user=1607,425367,1479298,2199655 "
            "gold=33,588,0,0,0,1467495 silver=45,699,0,0,0,1203381 "
            "bronze=42,320,0,0,0,1581077 ctl=14,2,2 faults=0,0,0 "
            "oracle=1787,1787,0,1787,0,0,0 breaker=0,0 placement=1");
}

TEST(OneShardGoldenTest, RecordedTenants) {
  ExperimentOptions o = SmallTenants(/*slo_aware=*/false);
  o.record_trace_path = testing::TempDir() + "golden_tenants.mitttrace";
  EXPECT_EQ(Probe(o, StrategyKind::kMittosResilient),
            "req=1787 ev=255252 dur=450308743 noise=1847 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=1607,426606,1782795,2284614 user=1607,426606,1782795,2284614 "
            "gold=33,588,0,0,0,1832382 silver=45,699,0,0,0,1582246 "
            "bronze=42,320,0,0,0,1941456 ctl=0,0,0 faults=0,0,0 file=44787:26ea1654247b4489");
}

TEST(OneShardGoldenTest, RecordedReplay) {
  ExperimentOptions o = Small();
  o.num_clients = 0;
  o.backend = os::BackendKind::kSsd;
  o.noise = NoiseKind::kNone;
  o.replay.synthetic_profile = 0;
  o.replay.synthetic_duration = Seconds(2);
  o.replay.max_events = 400;
  o.replay.warmup_events = 50;
  o.record_trace_path = testing::TempDir() + "golden_replay.mitttrace";
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=400 ev=3194 dur=242887971 noise=0 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=350,430516,455129,457676 user=350,430516,455129,457676 replay=400,224 "
            "faults=0,0,0 file=10112:63a4c0faa6050efb");
}

TEST(OneShardGoldenTest, TracedRun) {
  ExperimentOptions o = Small();
  o.trace = true;
  o.trace_capacity = 4096;
#ifdef MITT_OBS_DISABLED
  // No span recording compiled in: the same run, without the spans field.
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=2100 ev=20624 dur=3366486729 noise=918 ebusy=1234 to=0 hedge=0 deg=0 err=0 "
            "get=2000,6215140,50009040,101628557 user=2000,6215140,50009040,101628557 "
            "faults=0,0,0");
#else
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=2100 ev=20624 dur=3366486729 noise=918 ebusy=1234 to=0 hedge=0 deg=0 err=0 "
            "get=2000,6215140,50009040,101628557 user=2000,6215140,50009040,101628557 "
            "faults=0,0,0 spans=4096:10dd13f172e3172f");
#endif
}

// The LSM store (§5's LevelDB + Riak): three LSM nodes under EC2 noise.
TEST(OneShardGoldenTest, LsmStoreBaseAndMittos) {
  ExperimentOptions o = Small();
  o.num_nodes = 3;
  o.access = kv::AccessPath::kLsm;
  EXPECT_EQ(Probe(o, StrategyKind::kBase),
            "req=2100 ev=13542 dur=5400230879 noise=560 ebusy=0 to=0 hedge=0 deg=0 err=0 "
            "get=2000,6737009,65616921,95502205 user=2000,6737009,65616921,95502205 "
            "faults=0,0,0");
  EXPECT_EQ(Probe(o, StrategyKind::kMittos),
            "req=2100 ev=20664 dur=4078559479 noise=522 ebusy=1452 to=0 hedge=0 deg=0 err=0 "
            "get=2000,7648224,53939416,94617923 user=2000,7648224,53939416,94617923 "
            "faults=0,0,0");
}

TEST(OneShardGoldenTest, ScaleFactorThree) {
  ExperimentOptions o = Small();
  o.scale_factor = 3;
  o.measure_requests = 600;
  EXPECT_EQ(Probe(o, StrategyKind::kHedged),
            "req=700 ev=21680 dur=3402805268 noise=632 ebusy=0 to=0 hedge=1126 deg=0 err=0 "
            "get=1800,15259200,62691899,95875192 user=600,24041122,77835103,137568476 "
            "faults=0,0,0");
}

}  // namespace
}  // namespace mitt
