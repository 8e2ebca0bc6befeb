// perfbench: the repository benchmark for one client Get, end to end and
// layer by layer (perfbench/README.md has the full method).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 drives the workload through harness::Experiment with tracing off
// and prints the end-to-end metrics. --trace 1 is the separate traced run: it
// reads RunResult, the metrics registry and the span buffer, and times the
// workload's Get stream through successive public entry points (layer
// peeling) to give every layer its own host cost. Every run checks its
// outputs first: a failed check prints the reason to stderr and exits 1
// without a result line.
//
// Host time (steady_clock wall time of this process) and simulated time (the
// model's clock) are always named apart: "sim_" metrics are simulated.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/cluster/cpu_pool.h"
#include "src/cluster/network.h"
#include "src/device/disk_model.h"
#include "src/device/disk_profile.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/harness/experiment.h"
#include "src/kv/doc_store_node.h"
#include "src/noise/ec2_noise.h"
#include "src/noise/noise_injector.h"
#include "src/obs/metrics.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_ssd.h"
#include "src/os/os.h"
#include "src/sched/cfq_scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

// --- Allocation-counting hook (same shape as bench/bench_hotpath.cc) ---------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from this hook too, or a sanitizer's own nothrow new would be freed
// by the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::aligned_alloc(static_cast<std::size_t>(align), size);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace mitt;
using harness::ExperimentOptions;
using harness::RunResult;
using harness::StrategyKind;

// --- Workloads ----------------------------------------------------------------
//
// All four are closed-loop YCSB Get workloads: every simulated client waits for
// its reply before it sends the next Get. The experiment seed is the figure
// bench's seed plus --seed, so --seed 0 reproduces the figure's world.
// Deadlines are pinned: each is the Base p95 of one repetition at the default
// seed (`perfbench --derive-deadline <workload>` recomputes it), so the SLO
// stays fixed while --seed varies the inputs.

struct Workload {
  std::string_view name;
  uint64_t default_seed;
  StrategyKind kind;
  DurationNs deadline;
  size_t gets;  // Gets driven per repetition, warmup included.
  size_t warmup;
  // Noise schedules are generated up to this simulated time; it covers every
  // repetition's simulated duration, and a run that outlives it fails.
  TimeNs noise_horizon;
};

constexpr Workload kWorkloads[] = {
    {"ec2-disk", 20170101, StrategyKind::kMittos, 24'834'502, 400'000, 2'000, Seconds(240)},
    {"ssd-write-res", 20170105, StrategyKind::kMittosResilient, 829'138, 600'000, 2'000,
     Seconds(120)},
    {"cache-mmap", 20170104, StrategyKind::kMittos, Micros(100), 800'000, 2'000, Seconds(400)},
    {"sharded-ssd", 20171000, StrategyKind::kMittos, Millis(13), 300'000, 5'120, Seconds(400)},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

ExperimentOptions MakeOptions(const Workload& w, uint64_t seed, bool tiny) {
  ExperimentOptions o;
  o.seed = w.default_seed + seed;
  const size_t gets = tiny ? w.gets / 50 : w.gets;
  o.warmup_requests = tiny ? w.warmup / 10 : w.warmup;
  o.measure_requests = gets - o.warmup_requests;
  o.deadline = w.deadline;
  o.hedge_delay = w.deadline;
  o.app_timeout = w.deadline;
  o.noise_horizon = w.noise_horizon;
  // Pinned so the environment (MITT_INTRA_WORKERS, MITT_ENGINE_*) cannot
  // change what is measured. Timed runs use one intra worker: on a shared
  // host a second engine thread waits at every window barrier for whichever
  // core the neighbours slow down, and the spread of Gets/s across runs went
  // from 3% to 77%. The parallel engine's wall clock is the traced run's
  // engine.wall_speedup_2w; the oracle pass runs sharded worlds at 2.
  o.intra_workers = 1;
  o.engine_rebalance = 64;
  o.engine_fusion = 1;
  if (w.name == "ec2-disk") {
    // Fig. 5: disk + MittCFQ under compressed EC2 read noise.
    o.num_nodes = 20;
    o.num_clients = 20;
    o.backend = os::BackendKind::kDiskCfq;
    o.access = kv::AccessPath::kRead;
    o.noise = harness::NoiseKind::kEc2;
    o.ec2 = harness::CompressedEc2Noise();
  } else if (w.name == "ssd-write-res") {
    // Fig. 8: six partitions on one 8-thread machine, SSD write noise.
    o.num_nodes = 6;
    o.num_clients = 8;
    o.shared_cpu_cores = 8;
    o.cpu_cores = 8;
    o.handler_cpu = Micros(400);
    o.backend = os::BackendKind::kSsd;
    o.noise = harness::NoiseKind::kEc2;
    o.ec2 = harness::CompressedEc2Noise();
    // Denser, regular episodes: with the heavy-tailed schedule of six nodes
    // the seed decided how much noise a run met (p99 0.87-1.48 ms and events
    // per Get +-14% across seeds).
    o.ec2.mean_off = Millis(700);
    o.ec2.off_sigma = 0.3;
    o.ec2.extra_stream_prob = 0;
    o.ec2.hot_node_fraction = 0;
    o.noise_op = sched::IoOp::kWrite;
    o.noise_io_size = 256 << 10;
    o.noise_streams = 2;
  } else if (w.name == "cache-mmap") {
    // Fig. 7: mmap + AddrCheck over a warm 2 GB page cache, static drop.
    o.num_nodes = 20;
    o.num_clients = 20;
    o.access = kv::AccessPath::kMmapAddrCheck;
    o.warm_fraction = 1.0;
    o.num_keys_per_node = 1 << 18;
    o.cache_pages = 1 << 19;
    o.noise = harness::NoiseKind::kStaticCacheDrop;
    // Fig. 7 drops 12%, where about 0.1% of Gets miss on all three replicas
    // and the seed picks p99.9's mode (~1 ms fast path or ~38 ms disk fill).
    o.cache_drop_fraction = 0.16;
  } else {
    // A mid-size bench_scalecore shape on the sharded engine.
    o.num_nodes = 256;
    o.num_clients = 512;
    o.num_shards = 16;
    o.num_keys_per_node = 4096;
    o.distribution = workload::KeyDistribution::kZipfian;
    o.cache_pages = 8192;
    o.warm_fraction = 0.5;
    o.backend = os::BackendKind::kSsd;
    o.noise = harness::NoiseKind::kNone;
  }
  return o;
}

// --- Small helpers ---------------------------------------------------------------

double NowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double ToMs(DurationNs ns) { return static_cast<double>(ns) / 1e6; }

// Peak resident set of this process, from /proc/self/status (VmHWM, KiB).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Host speed reference. Interference on a shared host comes in phases that
// can outlast a whole run: noisy neighbours on the same cores and memory
// slowed every repetition of some runs by up to 1.8x. This fixed kernel is
// independent of src/ and shaped like the simulator's hot loop: a heap of
// timestamped events and scattered reads and writes into a 128 MB table, large
// enough to feel memory contention as the bigger worlds do. It runs right
// before each timed run (see TimedRun).
double ReferencePass() {
  constexpr size_t kTableWords = size_t{1} << 24;
  constexpr int kEvents = 4096;
  constexpr int kSteps = 300'000;
  static std::vector<uint64_t> table(kTableWords, 1);
  std::vector<std::pair<uint64_t, uint32_t>> heap;
  heap.reserve(kEvents);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto later = std::greater<std::pair<uint64_t, uint32_t>>();
  const double t0 = NowSec();
  for (int i = 0; i < kEvents; ++i) {
    heap.emplace_back(next() & 0xFFFFF, static_cast<uint32_t>(i));
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    auto [when, id] = heap.back();
    heap.pop_back();
    const size_t slot = (next() ^ id) & (kTableWords - 1);
    table[slot] += when;
    const uint64_t delay = (table[(slot * 31 + 7) & (kTableWords - 1)] & 1023) + 1;
    heap.emplace_back(when + delay, id);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double seconds = NowSec() - t0;
  if (heap.front().first == 0) {  // Keeps the loop observable.
    std::printf("reference kernel: %llu\n", static_cast<unsigned long long>(table[0]));
  }
  return seconds;
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: output check failed: %s\n", why.c_str());
  std::exit(1);
}

// --- Output checks ---------------------------------------------------------------

// The simulated outputs that must repeat bit-for-bit on a fixed seed, at any
// intra-worker count and with tracing on or off.
struct SimSignature {
  DurationNs p50 = 0;
  DurationNs p99 = 0;
  DurationNs p999 = 0;
  size_t samples = 0;
  uint64_t requests = 0;
  uint64_t sim_events = 0;
  uint64_t ebusy_failovers = 0;
  uint64_t user_errors = 0;
  uint64_t noise_ios = 0;
  TimeNs sim_duration = 0;
  bool operator==(const SimSignature&) const = default;
};

SimSignature SignatureOf(const RunResult& r) {
  const double ps[] = {50, 99, 99.9};
  const std::vector<DurationNs> v = r.get_latencies.Percentiles(ps);
  SimSignature s;
  s.p50 = v[0];
  s.p99 = v[1];
  s.p999 = v[2];
  s.samples = r.get_latencies.count();
  s.requests = r.requests;
  s.sim_events = r.sim_events;
  s.ebusy_failovers = r.ebusy_failovers;
  s.user_errors = r.user_errors;
  s.noise_ios = r.noise_ios;
  s.sim_duration = r.sim_duration;
  return s;
}

void CheckSame(const SimSignature& want, const SimSignature& got, const char* what) {
  if (!(want == got)) {
    Fail(std::string(what) + " changed the simulated outputs (p99 " +
         std::to_string(want.p99) + " vs " + std::to_string(got.p99) + " ns, events " +
         std::to_string(want.sim_events) + " vs " + std::to_string(got.sim_events) +
         ", ebusy failovers " + std::to_string(want.ebusy_failovers) + " vs " +
         std::to_string(got.ebusy_failovers) + ")");
  }
}

// Every issued Get completes exactly once, and the outcome split adds up.
void CheckOracle(const RunResult& r, uint64_t expected_gets) {
  const harness::OracleHarvest& h = r.oracle;
  if (!h.enabled) {
    Fail("oracle harvest was not collected");
  }
  if (h.gets_issued != expected_gets) {
    Fail("issued " + std::to_string(h.gets_issued) + " Gets, expected " +
         std::to_string(expected_gets));
  }
  if (h.gets_done != h.gets_issued) {
    Fail(std::to_string(h.gets_issued - h.gets_done) + " Gets never completed");
  }
  if (h.gets_done_duplicate != 0) {
    Fail(std::to_string(h.gets_done_duplicate) + " Gets completed more than once");
  }
  if (h.done_ok + h.done_busy + h.done_exhausted + h.done_error != h.gets_done) {
    Fail("Get outcomes do not add up to the completions");
  }
}

void CheckHorizon(const ExperimentOptions& o, const RunResult& r) {
  if (o.noise != harness::NoiseKind::kNone && r.sim_duration > o.noise_horizon) {
    Fail("simulated duration " + std::to_string(ToMs(r.sim_duration)) +
         " ms outlives the noise horizon " + std::to_string(ToMs(o.noise_horizon)) + " ms");
  }
}

// --- Running the workload --------------------------------------------------------

struct Pass {
  RunResult result;
  double wall_s = 0;    // Host time of the whole Run(): world build, drive, teardown
                        // (at reference speed when it comes from TimedRun).
  uint64_t allocs = 0;  // Heap allocations inside Run().
};

Pass RunOnce(const ExperimentOptions& o, StrategyKind kind) {
  harness::Experiment experiment(o);
  const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = NowSec();
  Pass p{experiment.Run(kind), 0, 0};
  p.wall_s = NowSec() - t0;
  p.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return p;
}

// Host times are reported at reference speed: scaled to what the host would
// have taken if ReferencePass had run in kReferenceSeconds, about its time on
// the 4-CPU host the benchmark was tuned on. Slow phases of host load then
// largely cancel out.
constexpr double kReferenceSeconds = 0.075;

// Runs the reference kernel, then the world; wall_s comes back scaled to
// reference speed by that reference pass.
Pass TimedRun(const ExperimentOptions& o, StrategyKind kind) {
  const double scale = kReferenceSeconds / ReferencePass();
  Pass p = RunOnce(o, kind);
  p.wall_s *= scale;
  return p;
}

// The world build alone: the same options driven with zero requests, timed
// at reference speed. Builds interleave with the timed repetitions so both
// sample the same stretch of host load.
class Setup {
 public:
  Setup(const ExperimentOptions& o, StrategyKind kind) : zero_(o), kind_(kind) {
    zero_.warmup_requests = 0;
    zero_.measure_requests = 0;
  }

  // Builds at least kMinBuilds times, and more while builds are cheap.
  void Warm() {
    const double end = NowSec() + kBudgetS;
    while (walls_.size() < kMinBuilds || (walls_.size() < kMaxBuilds && NowSec() < end)) {
      Build();
    }
  }

  void Build() {
    const Pass p = TimedRun(zero_, kind_);
    walls_.push_back(p.wall_s);
    allocs_ = p.allocs;
  }

  double seconds() const { return Median(walls_); }
  uint64_t allocs() const { return allocs_; }  // Of one build (deterministic).
  size_t samples() const { return walls_.size(); }

 private:
  static constexpr size_t kMinBuilds = 3;
  static constexpr size_t kMaxBuilds = 41;
  static constexpr double kBudgetS = 1.0;

  ExperimentOptions zero_;
  StrategyKind kind_;
  std::vector<double> walls_;
  uint64_t allocs_ = 0;
};

uint64_t GetsDriven(const ExperimentOptions& o) {
  return (o.warmup_requests + o.measure_requests) * static_cast<uint64_t>(o.scale_factor);
}

// The untimed correctness pass: oracle harvest on, two intra workers (only a
// sharded world uses them). Its signature is the reference every timed pass,
// at one worker, must reproduce.
constexpr int kOracleIntraWorkers = 2;

Pass OraclePass(const ExperimentOptions& o, StrategyKind kind) {
  ExperimentOptions oo = o;
  oo.harvest_oracles = true;
  oo.intra_workers = kOracleIntraWorkers;
  Pass p = RunOnce(oo, kind);
  CheckOracle(p.result, GetsDriven(o));
  CheckHorizon(o, p.result);
  if (p.result.requests != o.warmup_requests + o.measure_requests) {
    Fail("the closed loop completed " + std::to_string(p.result.requests) + " requests");
  }
  return p;
}

// --- Reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 15;
  int trace = 0;
  bool tiny = false;
  bool plant_mismatch = false;
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void PrintEnvelope(const Args& a, const Workload& w, const ExperimentOptions& o) {
  std::printf(
      "perfbench-envelope {\"host\": {\"cpus\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"git_rev\": \"%s\", \"src_digest\": \"%s\"}, \"workload\": \"%s\", \"seed\": "
      "%llu, \"experiment_seed\": %llu, \"strategy\": \"%s\", \"deadline_ns\": %lld, "
      "\"gets_per_rep\": %llu, \"intra_workers\": %d, \"oracle_intra_workers\": %d, "
      "\"engine_rebalance\": %d, "
      "\"engine_fusion\": %d, \"shards\": %d, \"noise_horizon_s\": %.0f, \"tiny\": %s, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), kCompiler, PERFBENCH_BUILD_TYPE, a.git_rev.c_str(),
      a.src_digest.c_str(), std::string(w.name).c_str(),
      static_cast<unsigned long long>(a.seed), static_cast<unsigned long long>(o.seed),
      std::string(harness::StrategyKindName(w.kind)).c_str(),
      static_cast<long long>(o.deadline), static_cast<unsigned long long>(GetsDriven(o)),
      o.intra_workers, harness::ResolveShards(o) > 1 ? kOracleIntraWorkers : 1,
      o.engine_rebalance, o.engine_fusion, harness::ResolveShards(o),
      static_cast<double>(o.noise_horizon) / 1e9, a.tiny ? "true" : "false", a.trace);
}

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}


// --- End-to-end run (--trace 0) ----------------------------------------------------

int RunEndToEnd(const Args& a, const Workload& w) {
  const ExperimentOptions o = MakeOptions(w, a.seed, a.tiny);
  PrintEnvelope(a, w, o);

  // The oracle pass runs first, so the peak RSS read here is the world's
  // alone, before the reference kernel's table joins it.
  const Pass ref = OraclePass(o, w.kind);
  const SimSignature sig = SignatureOf(ref.result);
  const double peak_rss_mb = PeakRssMb();
  const uint64_t gets = GetsDriven(o);
  Setup setup(o, w.kind);
  setup.Warm();

  // Timed repetitions, each after one more set-up build, until --seconds of
  // host time have passed (at least two, so the repeat check always runs).
  // Each must reproduce the oracle pass bit-for-bit, at the workload's own
  // intra-worker count. The drive is the median repetition less the median
  // build.
  std::vector<double> walls;
  std::vector<double> allocs_per_get;
  const double end = NowSec() + a.seconds;
  do {
    setup.Build();
    const Pass p = TimedRun(o, w.kind);
    SimSignature got = SignatureOf(p.result);
    if (a.plant_mismatch && walls.size() == 1) {
      ++got.sim_events;  // Self-test: a planted divergence must trip the check.
    }
    CheckSame(sig, got, "repeating the run");
    walls.push_back(p.wall_s);
    allocs_per_get.push_back(static_cast<double>(p.allocs - std::min(p.allocs, setup.allocs())) /
                             static_cast<double>(gets));
    std::printf("rep %zu: %.3f s at reference speed, %.3f allocs/Get\n", walls.size(),
                p.wall_s, allocs_per_get.back());
  } while (walls.size() < 2 || NowSec() < end);
  const double drive_s = std::max(Median(walls) - setup.seconds(), 1e-9);

  const harness::OracleHarvest& h = ref.result.oracle;
  const uint64_t not_ok = h.gets_done - h.done_ok;
  const size_t reps = walls.size();
  const uint64_t samples = sig.samples;
  std::vector<Metric> m = {
      {"gets_per_s", static_cast<double>(gets) / drive_s, "Gets/s", reps},
      {"setup_s", setup.seconds(), "s", setup.samples()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"allocs_per_get", Median(allocs_per_get), "count", reps},
      {"sim_get_p50_ms", ToMs(sig.p50), "ms", samples},
      {"sim_get_p99_ms", ToMs(sig.p99), "ms", samples},
      {"sim_get_p999_ms", ToMs(sig.p999), "ms", samples},
      {"get_ok_frac", Ratio(static_cast<double>(h.done_ok), static_cast<double>(h.gets_issued)),
       "ratio", h.gets_issued},
  };
  std::printf("get_error_frac (= 1 - get_ok_frac)  %.9f ratio (n=%llu)\n",
              Ratio(static_cast<double>(not_ok), static_cast<double>(h.gets_issued)),
              static_cast<unsigned long long>(h.gets_issued));
  PrintResult(m, gets * (reps + 1), not_ok * (reps + 1));
  return 0;
}

// --- Layer peeling ------------------------------------------------------------------
//
// The traced run replays the workload's Get stream (its YCSB key generator,
// pinned deadline and node-0 noise injector) through successive public entry
// points, each in a one-node world built here from public constructors:
//
//   device   DiskModel/SsdModel::Submit
//   sched    IoScheduler::Submit (scheduler + Mitt predictor + device)
//   os       Os::ReadWithWaitHint, or AddrCheck + MmapAccess on the mmap path
//   cpu      CpuPool::Execute alone (one handler burst)
//   kv       DocStoreNode::HandleGetWithHint (two CPU bursts + one syscall)
//   net      Network::Deliver there and back around HandleGetWithHint
//
// and the full Experiment::Run on top. A layer's self time is the difference
// in host time per operation between adjacent entry points, scaled by how
// many lower operations one upper operation makes.

// Host cost of one operation at a world's entry point.
struct Cost {
  double ns = 0;
  double allocs = 0;
  double noise_ios = 0;     // Noise IOs the world's injector issued per operation.
  double cache_misses = 0;  // Get syscalls per operation that missed the page cache.
};

class PeeledWorld {
 public:
  PeeledWorld(const ExperimentOptions& o, int streams) : options_(o) {
    sim_.set_metrics(&metrics_);
    const uint64_t keyspace =
        static_cast<uint64_t>(o.num_keys_per_node) * static_cast<uint64_t>(o.num_nodes);
    for (int s = 0; s < streams; ++s) {
      workload::YcsbWorkload::Options wopt;
      wopt.num_keys = keyspace;
      wopt.distribution = o.distribution;
      wopt.seed = o.seed ^ (0xC0FFEEULL + static_cast<uint64_t>(s));
      streams_.push_back(std::make_unique<Stream>(Stream{s, workload::YcsbWorkload(wopt)}));
    }
  }
  virtual ~PeeledWorld() = default;

  PeeledWorld(const PeeledWorld&) = delete;
  PeeledWorld& operator=(const PeeledWorld&) = delete;

  // Runs `ops` more operations in `windows` equal windows and returns the
  // best window's cost (interference only slows a window down).
  Cost Measure(uint64_t ops, int windows) {
    const uint64_t per = std::max<uint64_t>(1, ops / static_cast<uint64_t>(windows));
    const double n = static_cast<double>(per);
    Cost best;
    for (int i = 0; i < windows; ++i) {
      const uint64_t nio0 = InjectorIos();
      const uint64_t miss0 = metrics_.CounterTotal("cache_miss_total");
      const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      const double t0 = NowSec();
      RunOps(per);
      const double t1 = NowSec();
      const uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
      const Cost c{(t1 - t0) * 1e9 / n, static_cast<double>(a1 - a0) / n,
                   static_cast<double>(InjectorIos() - nio0) / n,
                   static_cast<double>(metrics_.CounterTotal("cache_miss_total") - miss0) / n};
      if (i == 0 || c.ns < best.ns) {
        best = c;
      }
    }
    return best;
  }

  // Operations before measuring: pools, queues and caches reach steady state.
  void Warm(uint64_t ops) { RunOps(ops); }

 protected:
  struct Stream {
    int index = 0;
    workload::YcsbWorkload keys;
    uint64_t key = 0;
    bool parked = true;
  };

  // Starts one operation for `s`; the world calls Complete(s) when it ends.
  virtual void Issue(Stream& s) = 0;

  void Complete(Stream& s) {
    ++done_;
    Next(s);
  }

  int64_t OffsetOf(uint64_t key) const {
    return static_cast<int64_t>(key % static_cast<uint64_t>(options_.num_keys_per_node)) * 4096;
  }

  // The node-0 noise injector of the workload, on `target`'s simulator.
  void AttachNoise(os::Os* target, uint64_t data_file) {
    const ExperimentOptions& o = options_;
    if (o.noise == harness::NoiseKind::kEc2) {
      const noise::Ec2NoiseModel ec2(o.ec2, o.seed ^ 0xEC2);
      const int64_t file_size = 200LL << 30;
      const uint64_t file = target->CreateFile(file_size);
      noise::IoNoiseInjector::Options opt;
      opt.io_size = o.noise_io_size;
      opt.streams_per_intensity = o.noise_streams;
      opt.op = o.noise_op;
      opt.pid = 9000;
      opt.io_class = o.noise_class;
      opt.priority = o.noise_priority;
      io_noise_ = std::make_unique<noise::IoNoiseInjector>(
          &sim_, target, file, file_size, ec2.GenerateSchedule(0, o.noise_horizon), opt,
          o.seed ^ 0x4015EULL);
      io_noise_->Start();
    } else if (o.noise == harness::NoiseKind::kStaticCacheDrop) {
      noise::CacheNoiseInjector::Options opt;
      opt.file = data_file;
      opt.file_size = o.num_keys_per_node * 4096;
      opt.drop_fraction_per_intensity = o.cache_drop_fraction * 0.5;
      opt.restore = false;
      cache_noise_ = std::make_unique<noise::CacheNoiseInjector>(
          &sim_, target, std::vector<noise::NoiseEpisode>{{0, o.noise_horizon, 1}}, opt,
          o.seed ^ 0xCACEULL);
      cache_noise_->Start();
    }
  }
  uint64_t InjectorIos() const { return io_noise_ != nullptr ? io_noise_->ios_issued() : 0; }

  // Same warm set as DocStoreNode::WarmCache.
  void WarmCache(os::Os& target, uint64_t data_file) {
    const auto keys = static_cast<int64_t>(static_cast<double>(options_.num_keys_per_node) *
                                           options_.warm_fraction);
    for (int64_t k = 0; k < keys; ++k) {
      target.Prefault(data_file, k * 4096, 1024);
    }
  }

  const ExperimentOptions options_;
  obs::MetricsRegistry metrics_;  // Outlives every component built on sim_.
  sim::Simulator sim_;

 private:
  void Next(Stream& s) {
    if (issued_ >= target_) {
      s.parked = true;
      return;
    }
    ++issued_;
    s.key = s.keys.Next().key;
    Issue(s);
  }

  void RunOps(uint64_t ops) {
    target_ += ops;
    for (auto& s : streams_) {
      if (s->parked) {
        s->parked = false;
        Next(*s);
      }
    }
    sim_.RunUntilPredicate([this] { return done_ >= target_; });
    if (done_ < target_) {
      Fail("a peeled world stalled before its operations completed");
    }
  }

  std::vector<std::unique_ptr<Stream>> streams_;
  uint64_t target_ = 0;
  uint64_t issued_ = 0;
  uint64_t done_ = 0;
  std::unique_ptr<noise::IoNoiseInjector> io_noise_;
  std::unique_ptr<noise::CacheNoiseInjector> cache_noise_;
};

kv::DocStoreNode::Options NodeOptions(const ExperimentOptions& o) {
  kv::DocStoreNode::Options n;
  n.num_keys = o.num_keys_per_node;
  n.access = o.access;
  n.cpu_cores = o.shared_cpu_cores > 0 ? o.shared_cpu_cores : o.cpu_cores;
  n.handler_cpu = o.handler_cpu;
  n.os.backend = o.backend;
  n.os.cache.capacity_pages = o.cache_pages;
  n.os.mitt_enabled = true;
  n.os.predictor = o.predictor;
  n.os.mitt_cfq = o.mitt_cfq;
  n.os.mitt_ssd = o.mitt_ssd;
  n.os.seed = o.seed;
  return n;
}

bool IsSsd(const ExperimentOptions& o) { return o.backend == os::BackendKind::kSsd; }

// A Get's data read, handed straight to the device.
class DeviceWorld : public PeeledWorld {
 public:
  DeviceWorld(const ExperimentOptions& o, int streams) : PeeledWorld(o, streams) {
    requests_.resize(static_cast<size_t>(streams));
    auto done = [this](sched::IoRequest* r) {
      if (r->id >= 1 && r->id <= requests_.size()) {
        Complete(*by_request_[r->id - 1]);
      }
    };
    by_request_.resize(requests_.size());
    if (IsSsd(o)) {
      ssd_ = std::make_unique<device::SsdModel>(&sim_, device::SsdParams{}, o.seed);
      ssd_->set_completion_listener(done);
    } else {
      disk_ = std::make_unique<device::DiskModel>(&sim_, device::DiskParams{}, o.seed);
      disk_->set_completion_listener(done);
    }
  }

 protected:
  void Issue(Stream& s) override {
    by_request_[static_cast<size_t>(s.index)] = &s;
    sched::IoRequest& r = requests_[static_cast<size_t>(s.index)];
    r = sched::IoRequest{};
    r.id = static_cast<uint64_t>(s.index) + 1;
    r.offset = OffsetOf(s.key);
    r.size = 1024;
    r.pid = 1;
    if (ssd_ != nullptr) {
      ssd_->Submit(&r);
    } else {
      if (!disk_->CanAccept()) {
        Fail("device world: disk queue full");
      }
      disk_->Submit(&r);
    }
  }

 private:
  std::unique_ptr<device::DiskModel> disk_;
  std::unique_ptr<device::SsdModel> ssd_;
  std::vector<sched::IoRequest> requests_;
  std::vector<Stream*> by_request_;
};

// The same read through the Mitt admission predictor and the IO scheduler,
// wired as Os wires them.
class SchedWorld : public PeeledWorld {
 public:
  SchedWorld(const ExperimentOptions& o, int streams) : PeeledWorld(o, streams) {
    requests_.resize(static_cast<size_t>(streams));
    // Gets on the mmap path reach the scheduler only as undeadlined fills.
    deadline_ = o.access == kv::AccessPath::kRead ? o.deadline : sched::kNoDeadline;
    const os::OsOptions oo = NodeOptions(o).os;
    if (IsSsd(o)) {
      ssd_ = std::make_unique<device::SsdModel>(&sim_, oo.ssd, o.seed);
      sim::Simulator scratch;
      device::SsdModel twin(&scratch, oo.ssd, o.seed ^ 0x5eedf00d);
      mitt_ssd_ = std::make_unique<os::MittSsdPredictor>(
          &sim_, ssd_.get(), device::ProfileSsd(&scratch, &twin), oo.predictor, oo.mitt_ssd);
      scheduler_ = std::make_unique<os::SsdBlockLayer>(&sim_, ssd_.get(), mitt_ssd_.get());
    } else {
      disk_ = std::make_unique<device::DiskModel>(&sim_, oo.disk, o.seed);
      sim::Simulator scratch;
      device::DiskModel twin(&scratch, oo.disk, o.seed ^ 0x5eedf00d);
      mitt_cfq_ = std::make_unique<os::MittCfqPredictor>(
          &sim_, device::ProfileDisk(&scratch, &twin), oo.predictor, oo.mitt_cfq);
      scheduler_ = std::make_unique<sched::CfqScheduler>(&sim_, disk_.get(), mitt_cfq_.get(),
                                                         oo.cfq);
    }
  }

 protected:
  void Issue(Stream& s) override {
    sched::IoRequest& r = requests_[static_cast<size_t>(s.index)];
    r = sched::IoRequest{};
    r.id = static_cast<uint64_t>(s.index) + 1;
    r.offset = OffsetOf(s.key);
    r.size = 1024;
    r.pid = 1;
    r.deadline = deadline_;
    Stream* sp = &s;
    r.on_complete = [this, sp](const sched::IoRequest&, Status status) {
      if (status.busy()) {
        // A reject can complete inside Submit; finish on the next event so a
        // run of rejects does not recurse.
        sim_.Schedule(0, [this, sp] { Complete(*sp); });
        return;
      }
      Complete(*sp);
    };
    scheduler_->Submit(&r);
  }

 private:
  DurationNs deadline_ = sched::kNoDeadline;
  std::unique_ptr<device::DiskModel> disk_;
  std::unique_ptr<device::SsdModel> ssd_;
  std::unique_ptr<os::MittCfqPredictor> mitt_cfq_;
  std::unique_ptr<os::MittSsdPredictor> mitt_ssd_;
  std::unique_ptr<sched::IoScheduler> scheduler_;
  std::vector<sched::IoRequest> requests_;
};

// The Get's syscall on a full Os (page cache, scheduler, device) with the
// node's noise tenant; the body of DocStoreNode::DoRead without its CPU.
class OsWorld : public PeeledWorld {
 public:
  OsWorld(const ExperimentOptions& o, int streams) : PeeledWorld(o, streams) {
    os::OsOptions oo = NodeOptions(o).os;
    oo.node_label = 0;
    os_ = std::make_unique<os::Os>(&sim_, oo);
    file_ = os_->CreateFile(o.num_keys_per_node * 4096);
    WarmCache(*os_, file_);
    AttachNoise(os_.get(), file_);
  }

 protected:
  void Issue(Stream& s) override {
    Stream* sp = &s;
    const int64_t offset = OffsetOf(s.key);
    if (options_.access == kv::AccessPath::kMmapAddrCheck) {
      const auto check = os_->AddrCheck(file_, offset, 1024, options_.deadline);
      if (check.status.busy()) {
        sim_.Schedule(check.cost, [this, sp] { Complete(*sp); });
        return;
      }
      sim_.Schedule(check.cost, [this, sp, offset] {
        os_->MmapAccess(file_, offset, 1024, 1, [this, sp](Status) { Complete(*sp); });
      });
      return;
    }
    os::Os::ReadArgs args;
    args.file = file_;
    args.offset = offset;
    args.size = 1024;
    args.deadline = options_.deadline;
    args.pid = 1;
    os_->ReadWithWaitHint(args, [this, sp](Status, DurationNs) { Complete(*sp); });
  }

 private:
  std::unique_ptr<os::Os> os_;
  uint64_t file_ = 0;
};

// One handler burst on a CPU pool alone.
class CpuWorld : public PeeledWorld {
 public:
  CpuWorld(const ExperimentOptions& o, int streams)
      : PeeledWorld(o, streams), cpu_(&sim_, NodeOptions(o).cpu_cores) {}

 protected:
  void Issue(Stream& s) override {
    Stream* sp = &s;
    cpu_.Execute(options_.handler_cpu / 2, [this, sp] { Complete(*sp); });
  }

 private:
  cluster::CpuPool cpu_;
};

// A Get served by one DocStoreNode, with or without the network hop around it.
class NodeWorld : public PeeledWorld {
 public:
  NodeWorld(const ExperimentOptions& o, int streams, bool network) : PeeledWorld(o, streams) {
    node_ = std::make_unique<kv::DocStoreNode>(&sim_, 0, NodeOptions(o));
    node_->WarmCache(o.warm_fraction);
    AttachNoise(&node_->os(), node_->data_file());
    if (network) {
      net_ = std::make_unique<cluster::Network>(&sim_, cluster::NetworkParams{}, o.seed);
    }
  }

 protected:
  void Issue(Stream& s) override {
    Stream* sp = &s;
    if (net_ == nullptr) {
      node_->HandleGetWithHint(s.key, options_.deadline,
                               [this, sp](Status, DurationNs) { Complete(*sp); });
      return;
    }
    net_->DeliverToNode(0, [this, sp] {
      node_->HandleGetWithHint(sp->key, options_.deadline, [this, sp](Status, DurationNs) {
        net_->Deliver(0, [this, sp] { Complete(*sp); });
      });
    });
  }

 private:
  std::unique_ptr<kv::DocStoreNode> node_;
  std::unique_ptr<cluster::Network> net_;
};

// The node's noise tenant alone: host cost per noise IO, subtracted from the
// worlds that carry the same injector.
class NoiseWorld : public PeeledWorld {
 public:
  explicit NoiseWorld(const ExperimentOptions& o) : PeeledWorld(o, 0) {
    os::OsOptions oo = NodeOptions(o).os;
    oo.node_label = 0;
    os_ = std::make_unique<os::Os>(&sim_, oo);
    const uint64_t file = os_->CreateFile(o.num_keys_per_node * 4096);
    AttachNoise(os_.get(), file);
  }

  // Host ns per noise IO over `ios` noise IOs (0 when the workload has none).
  double NsPerIo(uint64_t ios) {
    if (options_.noise != harness::NoiseKind::kEc2) {
      return 0;
    }
    const double t0 = NowSec();
    sim_.RunUntilPredicate([this, ios] { return InjectorIos() >= ios; });
    const double t1 = NowSec();
    return (t1 - t0) * 1e9 / static_cast<double>(std::max<uint64_t>(1, InjectorIos()));
  }

 protected:
  void Issue(Stream&) override {}

 private:
  std::unique_ptr<os::Os> os_;
};

struct Peel {
  Cost device, sched, os, cpu, kv, net;
  double noise_ns_per_io = 0;
};

Peel PeelLayers(const ExperimentOptions& o, uint64_t ops) {
  // Closed-loop streams per node, as the full world offers them.
  const int streams = std::max(1, (o.num_clients + o.num_nodes - 1) / o.num_nodes);
  const uint64_t warm = ops / 10;
  constexpr int kWindows = 3;
  // Host times at reference speed, like the full runs they are compared with.
  auto measure = [&](PeeledWorld&& world) {
    world.Warm(warm);
    const double scale = kReferenceSeconds / ReferencePass();
    Cost c = world.Measure(ops, kWindows);
    c.ns *= scale;
    return c;
  };
  Peel p;
  p.noise_ns_per_io = kReferenceSeconds / ReferencePass() *
                      NoiseWorld(o).NsPerIo(std::max<uint64_t>(1000, ops / 10));
  p.device = measure(DeviceWorld(o, streams));
  p.sched = measure(SchedWorld(o, streams));
  p.os = measure(OsWorld(o, streams));
  p.cpu = measure(CpuWorld(o, streams));
  p.kv = measure(NodeWorld(o, streams, /*network=*/false));
  p.net = measure(NodeWorld(o, streams, /*network=*/true));
  return p;
}

// --- Traced run (--trace 1) -----------------------------------------------------------

struct SpanStats {
  double tries_per_get = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;
  double service_p50_ms = 0;
  double service_p99_ms = 0;
  uint64_t gets = 0;  // Client Gets seen in the retained span window.
};

SpanStats AnalyzeSpans(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_set<uint64_t> ids;
  uint64_t failovers = 0;
  LatencyRecorder wait;
  LatencyRecorder service;
  for (const obs::SpanRecord& s : spans) {
    if (s.request_id == 0) {
      continue;  // Noise and background IOs.
    }
    ids.insert(s.request_id);
    switch (s.kind) {
      case obs::SpanKind::kFailover:
        ++failovers;
        break;
      case obs::SpanKind::kQueueWait:
        wait.Record(s.end - s.begin);
        break;
      case obs::SpanKind::kDeviceService:
        service.Record(s.end - s.begin);
        break;
      default:
        break;
    }
  }
  SpanStats st;
  st.gets = ids.size();
  st.tries_per_get = 1.0 + Ratio(static_cast<double>(failovers), static_cast<double>(ids.size()));
  st.queue_wait_p50_ms = ToMs(wait.Percentile(50));
  st.queue_wait_p99_ms = ToMs(wait.Percentile(99));
  st.service_p50_ms = ToMs(service.Percentile(50));
  st.service_p99_ms = ToMs(service.Percentile(99));
  return st;
}

int RunTraced(const Args& a, const Workload& w) {
  const ExperimentOptions o = MakeOptions(w, a.seed, a.tiny);
  PrintEnvelope(a, w, o);
  const uint64_t gets = GetsDriven(o);
  const bool sharded = harness::ResolveShards(o) > 1;

  Setup setup(o, w.kind);
  setup.Warm();
  const Pass ref = OraclePass(o, w.kind);
  const SimSignature sig = SignatureOf(ref.result);

  // Untraced and traced runs alternate, best of two each, so the overhead
  // ratio compares like stretches of host load.
  ExperimentOptions traced_opt = o;
  traced_opt.trace = true;
  traced_opt.trace_capacity = size_t{1} << 20;
  Pass plain;
  Pass traced;
  for (int i = 0; i < 2; ++i) {
    Pass p = TimedRun(o, w.kind);
    CheckSame(sig, SignatureOf(p.result), "repeating the run");
    if (i == 0 || p.wall_s < plain.wall_s) {
      plain = std::move(p);
    }
    Pass t = TimedRun(traced_opt, w.kind);
    SimSignature traced_sig = SignatureOf(t.result);
    if (a.plant_mismatch) {
      ++traced_sig.sim_events;  // Self-test: a planted divergence must trip the check.
    }
    CheckSame(sig, traced_sig, "tracing");
    if (i == 0 || t.wall_s < traced.wall_s) {
      traced = std::move(t);
    }
  }

  const RunResult& r = plain.result;
  const double drive_s = std::max(plain.wall_s - setup.seconds(), 1e-9);
  const double traced_drive_s = std::max(traced.wall_s - setup.seconds(), 1e-9);
  const double n = static_cast<double>(gets);

  // Engine: measured wall of the plain (one-worker) run over the best of two
  // runs at 2 intra workers (unsharded worlds report 0).
  double wall_speedup = 0;
  double cp_speedup = 0;
  if (sharded) {
    ExperimentOptions two = o;
    two.intra_workers = 2;
    double two_wall = 0;
    for (int i = 0; i < 2; ++i) {
      const Pass p2 = TimedRun(two, w.kind);
      CheckSame(sig, SignatureOf(p2.result), "two intra workers");
      two_wall = i == 0 ? p2.wall_s : std::min(two_wall, p2.wall_s);
    }
    wall_speedup = Ratio(drive_s, two_wall - setup.seconds());
    for (const auto& [workers, cp] : r.critical_path) {
      if (workers == 2) {
        cp_speedup = Ratio(static_cast<double>(r.sim_events), static_cast<double>(cp));
      }
    }
  }

  const SpanStats spans = AnalyzeSpans(traced.result.trace_spans);
  const Peel peel = PeelLayers(o, a.tiny ? 2'000 : 150'000);

  // Full-run per-Get host cost and the counters the harness harvests.
  const double full_ns = drive_s * 1e9 / n;
  const double full_allocs =
      static_cast<double>(plain.allocs - std::min(plain.allocs, setup.allocs())) / n;
  const double noise_per_get = static_cast<double>(r.noise_ios) / n;
  const obs::MetricsRegistry& mx = r.metrics;
  const double hits = static_cast<double>(mx.CounterTotal("cache_hit_total"));
  const double misses = static_cast<double>(mx.CounterTotal("cache_miss_total"));
  const double ebusy = static_cast<double>(mx.CounterTotal("ebusy_total"));

  // Self times by layer peeling (see the comment above PeeledWorld).
  const double nio = peel.noise_ns_per_io;
  const double os_ns = peel.os.ns - peel.os.noise_ios * nio;
  const double kv_ns = peel.kv.ns - peel.kv.noise_ios * nio;
  const double net_ns = peel.net.ns - peel.net.noise_ios * nio;
  const double tries = spans.tries_per_get;

  std::vector<Metric> m = {
      {"client.self_ns_per_get", full_ns - noise_per_get * nio - tries * net_ns, "ns", gets},
      {"client.allocs_per_get", full_allocs - tries * peel.net.allocs, "count", gets},
      {"client.tries_per_get", tries, "count", spans.gets},
      {"cluster.net.self_ns_per_msg", (net_ns - kv_ns) / 2, "ns", gets},
      {"cluster.net.msgs_per_get", 2 * tries, "count", spans.gets},
      {"cluster.cpu.self_ns_per_job", peel.cpu.ns, "ns", gets},
      {"cluster.cpu.allocs_per_job", peel.cpu.allocs, "count", gets},
      {"kv.self_ns_per_get", kv_ns - os_ns - 2 * peel.cpu.ns, "ns", gets},
      {"kv.allocs_per_get", peel.kv.allocs - peel.os.allocs - 2 * peel.cpu.allocs, "count", gets},
      {"os.self_ns_per_syscall", os_ns - peel.os.cache_misses * peel.sched.ns, "ns", gets},
      {"os.cache_hit_frac", Ratio(hits, hits + misses), "ratio",
       static_cast<uint64_t>(hits + misses)},
      {"os.ebusy_frac", Ratio(ebusy, hits + misses), "ratio",
       static_cast<uint64_t>(hits + misses)},
      {"sched.self_ns_per_io", peel.sched.ns - peel.device.ns, "ns", gets},
      {"sched.sim_queue_wait_ms.p50", spans.queue_wait_p50_ms, "ms", spans.gets},
      {"sched.sim_queue_wait_ms.p99", spans.queue_wait_p99_ms, "ms", spans.gets},
      {"device.self_ns_per_io", peel.device.ns, "ns", gets},
      {"device.sim_service_ms.p50", spans.service_p50_ms, "ms", spans.gets},
      {"device.sim_service_ms.p99", spans.service_p99_ms, "ms", spans.gets},
      {"noise.ios_per_get", noise_per_get, "count", gets},
      {"resilience.degraded_per_get", Ratio(static_cast<double>(r.degraded_gets), n), "count",
       gets},
      {"resilience.retry_denied", static_cast<double>(r.retry_denied), "count", gets},
      {"resilience.breaker_opens",
       static_cast<double>(mx.CounterTotal("resilience_breaker_open_total")), "count", gets},
      {"sim.events_per_get", Ratio(static_cast<double>(r.sim_events), n), "count", gets},
      {"sim.ns_per_event", Ratio(drive_s * 1e9, static_cast<double>(r.sim_events)), "ns",
       r.sim_events},
      {"engine.wall_speedup_2w", wall_speedup, "x", sharded ? 2u : 0u},
      {"engine.cp_speedup_2w", cp_speedup, "x", sharded ? 1u : 0u},
      {"engine.xshard_msgs_per_event",
       Ratio(static_cast<double>(r.cross_shard_messages), static_cast<double>(r.sim_events)),
       "count", r.sim_events},
      {"engine.events_per_window_p50", r.events_per_window_p50, "count", r.engine_windows},
      {"engine.fused_window_frac",
       Ratio(static_cast<double>(r.engine_fused_windows), static_cast<double>(r.engine_windows)),
       "ratio", r.engine_windows},
      {"obs.trace_overhead_frac", 1.0 - drive_s / traced_drive_s, "ratio", gets},
  };
  const uint64_t not_ok = ref.result.oracle.gets_done - ref.result.oracle.done_ok;
  PrintResult(m, gets * 5, not_ok * 5);
  return 0;
}

// Base p95 of one repetition at the default seed: the pinned deadline.
int DeriveDeadline(const Workload& w) {
  ExperimentOptions o = MakeOptions(w, 0, false);
  o.deadline = -1;
  harness::Experiment e(o);
  const RunResult base = e.Run(StrategyKind::kBase);
  std::printf("%s: Base p95 %lld ns over %zu Gets, simulated %.1f s, noise IOs %llu\n",
              std::string(w.name).c_str(),
              static_cast<long long>(base.get_latencies.Percentile(95)),
              base.get_latencies.count(), static_cast<double>(base.sim_duration) / 1e9,
              static_cast<unsigned long long>(base.noise_ios));
  return 0;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <ec2-disk|ssd-write-res|cache-mmap|sharded-ssd> "
               "--seed <n> --seconds <1..600> --trace <0|1> [--tiny] [--plant-mismatch] "
               "[--git-rev <rev>] [--src-digest <hex>]\n"
               "       %s --derive-deadline <workload>\n",
               argv0, argv0);
  std::exit(2);
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of returning it to the kernel, so
  // every repetition after the first reuses already-faulted pages: host time
  // then measures the program's own work, not first-touch page faults whose
  // cost swings with the host's memory pressure.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT32_MAX);
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t v = 0;
    if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--plant-mismatch") {
      a.plant_mismatch = true;
    } else if (val == nullptr) {
      Usage(argv[0]);
    } else if (arg == "--derive-deadline") {
      const Workload* w = FindWorkload(val);
      if (w == nullptr) {
        Usage(argv[0]);
      }
      return DeriveDeadline(*w);
    } else if (arg == "--workload") {
      a.workload = val;
      ++i;
    } else if (arg == "--seed" && ParseUint(val, &v)) {
      a.seed = v;
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && ParseUint(val, &v) && v >= 1 && v <= 600) {
      a.seconds = static_cast<int>(v);
      ++i;
    } else if (arg == "--trace" && ParseUint(val, &v) && v <= 1) {
      a.trace = static_cast<int>(v);
      ++i;
    } else if (arg == "--git-rev") {
      a.git_rev = val;
      ++i;
    } else if (arg == "--src-digest") {
      a.src_digest = val;
      ++i;
    } else {
      Usage(argv[0]);
    }
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr || !have_seed) {
    Usage(argv[0]);
  }
  return a.trace == 1 ? RunTraced(a, *w) : RunEndToEnd(a, *w);
}
