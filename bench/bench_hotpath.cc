// IO-pipeline hot-path microbenchmark: predict-call cost, per-IO heap
// allocations, and end-to-end closed-loop trial throughput for the three
// storage stacks (disk-CFQ, disk-noop, SSD).
//
// Three sections (EXPERIMENTS.md "bench_hotpath"):
//   1. predict: ns per PredictedWaitNow()/PredictedWait() call with the
//      scheduler preloaded to queue depth 1 vs 256. MittOS's admission check
//      runs on every Read syscall; the paper's premise is that it only
//      *reads* incrementally maintained aggregates, so the cost must not
//      depend on how many IOs are queued.
//   2. e2e: closed-loop clients (half with deadlines, half without, plus an
//      O_DIRECT noise tenant and a 1/32 buffered-write mix) hammer a full
//      Os stack; measures IOs/sec of simulated pipeline work per wall
//      second, and heap allocations per IO in the steady phase.
//
// The numbers are this host's alone. To compare two revisions, run both on
// one host, interleaved (scripts/ab_perfbench.py does this for the
// repository benchmark).
//
// Steady-state allocation *gating* lives in tests/alloc_test.cc (tier-1);
// this bench reports the same counters but never fails the build, so it is
// safe for noisy CI runners (the CI perf-smoke job is report-only).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/device/disk_model.h"
#include "src/device/disk_profile.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_noop.h"
#include "src/os/mitt_ssd.h"
#include "src/os/os.h"
#include "src/sched/cfq_scheduler.h"
#include "src/sched/io_request.h"
#include "src/sim/simulator.h"

// --- Allocation-counting hook (same shape as bench_simcore) ------------------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
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

using mitt::DurationNs;
using mitt::Micros;
using mitt::Millis;
using mitt::Rng;
using mitt::Status;
using mitt::TimeNs;
namespace os = mitt::os;
namespace sched = mitt::sched;
namespace device = mitt::device;

// --- Section 1: predict-call cost -------------------------------------------

// Builds a scheduler+predictor stack, preloads it to `depth` queued IOs
// (without ever running the simulator: the device stays busy, nothing
// completes), then times a tight PredictedWaitNow loop.
struct PredictResult {
  double cfq_ns = 0;
  double noop_ns = 0;
  double ssd_ns = 0;
};

PredictResult MeasurePredict(int depth, uint64_t calls) {
  PredictResult out;
  volatile DurationNs sink = 0;

  // Profiles are one-time offline passes on twin devices (see Os::Os).
  device::DiskParams dp;
  device::DiskProfile disk_profile;
  {
    mitt::sim::Simulator scratch;
    device::DiskModel twin(&scratch, dp, /*seed=*/0x5eedf00d);
    disk_profile = device::ProfileDisk(&scratch, &twin);
  }
  device::SsdParams sp;
  device::SsdProfile ssd_profile;
  {
    mitt::sim::Simulator scratch;
    device::SsdModel twin(&scratch, sp, /*seed=*/0x5eedf00d);
    ssd_profile = device::ProfileSsd(&scratch, &twin);
  }

  // disk-CFQ stack.
  {
    mitt::sim::Simulator sim;
    device::DiskModel disk(&sim, dp, /*seed=*/7);
    os::PredictorOptions popt;
    os::MittCfqOptions copt;
    os::MittCfqPredictor pred(&sim, disk_profile, popt, copt);
    sched::CfqScheduler cfq(&sim, &disk, &pred, sched::CfqParams{});

    Rng rng(11);
    std::vector<std::unique_ptr<sched::IoRequest>> reqs;
    reqs.reserve(static_cast<size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      auto r = std::make_unique<sched::IoRequest>();
      r->id = static_cast<uint64_t>(i + 1);
      r->offset = rng.UniformInt(0, dp.capacity_bytes - 4096);
      r->size = 4096;
      r->pid = 1 + (i & 3);
      cfq.Submit(r.get());
      reqs.push_back(std::move(r));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < calls; ++i) {
      sink = sink + pred.PredictedWaitNow(1 + static_cast<int32_t>(i & 3),
                                          sched::IoClass::kBestEffort);
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.cfq_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(calls);
  }

  // disk-noop predictor (the scheduler adds nothing to the estimate).
  {
    mitt::sim::Simulator sim;
    os::PredictorOptions popt;
    os::MittNoopPredictor pred(&sim, disk_profile, popt);
    Rng rng(13);
    std::vector<std::unique_ptr<sched::IoRequest>> reqs;
    reqs.reserve(static_cast<size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      auto r = std::make_unique<sched::IoRequest>();
      r->id = static_cast<uint64_t>(i + 1);
      r->offset = rng.UniformInt(0, dp.capacity_bytes - 4096);
      r->size = 4096;
      r->pid = 1;
      pred.ShouldReject(r.get());
      pred.OnAccepted(*r);
      reqs.push_back(std::move(r));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < calls; ++i) {
      sink = sink + pred.PredictedWaitNow();
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.noop_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  static_cast<double>(calls);
  }

  // SSD stack: probe a 1-page read while `depth` accepted IOs occupy chips.
  {
    mitt::sim::Simulator sim;
    device::SsdModel ssd(&sim, sp, /*seed=*/17);
    os::PredictorOptions popt;
    os::MittSsdOptions sopt;
    os::MittSsdPredictor pred(&sim, &ssd, ssd_profile, popt, sopt);
    Rng rng(19);
    const int64_t capacity = static_cast<int64_t>(sp.num_channels) * sp.chips_per_channel *
                             sp.pages_per_block * sp.page_size;
    std::vector<std::unique_ptr<sched::IoRequest>> reqs;
    reqs.reserve(static_cast<size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      auto r = std::make_unique<sched::IoRequest>();
      r->id = static_cast<uint64_t>(i + 1);
      r->offset = rng.UniformInt(0, capacity - sp.page_size);
      r->size = sp.page_size;
      r->pid = 1;
      pred.ShouldReject(r.get());
      pred.OnAccepted(r.get());
      reqs.push_back(std::move(r));
    }
    sched::IoRequest probe;
    probe.id = 1'000'000;
    probe.size = sp.page_size;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < calls; ++i) {
      probe.offset = static_cast<int64_t>((i & 1023) * static_cast<uint64_t>(sp.page_size));
      sink = sink + pred.PredictedWait(probe);
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.ssd_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(calls);
  }

  (void)sink;
  return out;
}

// --- Section 2: end-to-end closed-loop throughput ----------------------------

struct E2eResult {
  uint64_t ios = 0;            // IOs finished in the measured phase.
  double elapsed_sec = 0;      // Wall time of the measured phase.
  uint64_t ebusy = 0;          // Across the whole run.
  uint64_t allocs = 0;         // Warmup + measured.
  uint64_t steady_allocs = 0;  // Measured phase only.
  double ios_per_sec() const {
    return elapsed_sec > 0 ? static_cast<double>(ios) / elapsed_sec : 0;
  }
  double steady_allocs_per_io() const {
    return ios != 0 ? static_cast<double>(steady_allocs) / static_cast<double>(ios) : 0;
  }
};

struct Stream {
  os::Os* o = nullptr;
  Rng rng{1};
  uint64_t file = 0;
  int64_t pages = 0;
  int32_t pid = 0;
  DurationNs deadline = sched::kNoDeadline;
  bool bypass = false;
  uint64_t ios = 0;
  uint64_t ebusy = 0;
  uint64_t* total = nullptr;

  void Issue() {
    if (!bypass && ios % 32 == 31) {
      os::Os::WriteArgs w;
      w.file = file;
      w.offset = rng.UniformInt(0, pages - 1) * 4096;
      w.size = 4096;
      w.pid = pid;
      o->Write(w, [this](Status) { Done(false); });
      return;
    }
    os::Os::ReadArgs a;
    a.file = file;
    a.offset = rng.UniformInt(0, pages - 1) * 4096;
    a.size = 4096;
    a.pid = pid;
    a.deadline = deadline;
    a.bypass_cache = bypass;
    o->ReadWithWaitHint(a, [this](Status s, DurationNs) { Done(s.busy()); });
  }
  void Done(bool busy) {
    if (busy) {
      ++ebusy;
    }
    ++ios;
    ++*total;
    Issue();
  }
};

E2eResult RunE2e(os::BackendKind backend, uint64_t target_ios, uint64_t warmup_ios,
                 uint64_t seed) {
  mitt::sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = backend;
  opt.seed = seed;
  opt.cache.capacity_pages = 16 * 1024;  // 64 MiB cache over a 512 MiB file.
  os::Os osys(&sim, opt);

  const int64_t file_bytes = 512LL * 1024 * 1024;
  const uint64_t file = osys.CreateFile(file_bytes);
  const int64_t pages = file_bytes / 4096;
  // Warm a quarter of the file so the hit path is part of the mix.
  osys.Prefault(file, 0, file_bytes / 4);

  // Prime the background-flush path: the first flush after a cold start
  // pushes its whole accumulated dirty batch through the device queues in
  // one burst, setting ring/pool high-water marks. On the SSD the whole run
  // spans ~1 flush interval of simulated time, so without priming that
  // growth would land inside the measured phase and read as per-IO allocs.
  {
    Rng prime_rng(seed ^ 0xF1u);
    for (int i = 0; i < 4096; ++i) {
      os::Os::WriteArgs w;
      w.file = file;
      w.offset = prime_rng.UniformInt(0, pages - 1) * 4096;
      w.size = 4096;
      w.pid = 99;
      osys.Write(w, [](Status) {});
    }
    sim.RunUntil(sim.Now() + 2 * opt.flush_interval + Millis(1));
  }

  const bool is_ssd = backend == os::BackendKind::kSsd;
  const DurationNs dl = is_ssd ? Millis(2) : Millis(20);

  uint64_t total = 0;
  std::vector<std::unique_ptr<Stream>> streams;
  for (int i = 0; i < 9; ++i) {
    auto s = std::make_unique<Stream>();
    s->o = &osys;
    s->rng = Rng(seed * 977 + static_cast<uint64_t>(i));
    s->file = file;
    s->pages = pages;
    s->pid = 1 + i;
    s->total = &total;
    if (i == 8) {
      s->bypass = true;  // O_DIRECT noise tenant, never rejected.
    } else if (i < 4) {
      s->deadline = dl;  // SLO-carrying clients.
    }
    streams.push_back(std::move(s));
  }
  for (auto& s : streams) {
    s->Issue();
  }

  const uint64_t allocs_before = g_alloc_count.load();
  sim.RunUntilPredicate([&total, warmup_ios] { return total >= warmup_ios; });

  const uint64_t measured_start = total;
  const uint64_t steady_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunUntilPredicate([&total, target_ios] { return total >= target_ios; });
  const auto t1 = std::chrono::steady_clock::now();

  E2eResult r;
  r.ios = total - measured_start;
  r.elapsed_sec = std::chrono::duration<double>(t1 - t0).count();
  r.allocs = g_alloc_count.load() - allocs_before;
  r.steady_allocs = g_alloc_count.load() - steady_before;
  for (const auto& s : streams) {
    r.ebusy += s->ebusy;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t target = 60'000;  // IOs per stack per rep.
  int reps = 3;
  if (argc > 1) {
    char* end = nullptr;
    target = std::strtoull(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || target == 0 || target > 1'000'000'000ULL) {
      std::fprintf(stderr, "usage: %s [target_ios, 1..1e9] [reps, 1..100]\n", argv[0]);
      return 2;
    }
  }
  if (argc > 2) {
    reps = std::atoi(argv[2]);
    if (reps < 1 || reps > 100) {
      std::fprintf(stderr, "usage: %s [target_ios, 1..1e9] [reps, 1..100]\n", argv[0]);
      return 2;
    }
  }
  const uint64_t warmup = target / 6;
  const uint64_t predict_calls = 2'000'000;

  std::printf("=== bench_hotpath: predict cost + per-IO allocs + e2e throughput ===\n");

  // Section 1: predict-call cost at depth 1 vs 256 (best of reps).
  PredictResult d1, d256;
  for (int rep = 0; rep < reps; ++rep) {
    const auto a = MeasurePredict(1, predict_calls);
    const auto b = MeasurePredict(256, predict_calls);
    if (rep == 0 || a.cfq_ns < d1.cfq_ns) d1.cfq_ns = a.cfq_ns;
    if (rep == 0 || a.noop_ns < d1.noop_ns) d1.noop_ns = a.noop_ns;
    if (rep == 0 || a.ssd_ns < d1.ssd_ns) d1.ssd_ns = a.ssd_ns;
    if (rep == 0 || b.cfq_ns < d256.cfq_ns) d256.cfq_ns = b.cfq_ns;
    if (rep == 0 || b.noop_ns < d256.noop_ns) d256.noop_ns = b.noop_ns;
    if (rep == 0 || b.ssd_ns < d256.ssd_ns) d256.ssd_ns = b.ssd_ns;
  }
  std::printf("predict ns/call      depth=1    depth=256  ratio\n");
  std::printf("  mitt-cfq          %7.1f    %7.1f    %.2fx\n", d1.cfq_ns, d256.cfq_ns,
              d1.cfq_ns > 0 ? d256.cfq_ns / d1.cfq_ns : 0);
  std::printf("  mitt-noop         %7.1f    %7.1f    %.2fx\n", d1.noop_ns, d256.noop_ns,
              d1.noop_ns > 0 ? d256.noop_ns / d1.noop_ns : 0);
  std::printf("  mitt-ssd          %7.1f    %7.1f    %.2fx\n", d1.ssd_ns, d256.ssd_ns,
              d1.ssd_ns > 0 ? d256.ssd_ns / d1.ssd_ns : 0);

  // Section 2: end-to-end closed loop per stack (best wall time of reps;
  // carry the worst steady-alloc counter, as in bench_simcore).
  struct Named {
    const char* name;
    os::BackendKind kind;
    E2eResult r;
  };
  Named stacks[3] = {{"disk-cfq", os::BackendKind::kDiskCfq, {}},
                     {"disk-noop", os::BackendKind::kDiskNoop, {}},
                     {"ssd", os::BackendKind::kSsd, {}}};
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& s : stacks) {
      const auto r = RunE2e(s.kind, target, warmup, /*seed=*/41);
      const uint64_t worst_steady = std::max(s.r.steady_allocs, r.steady_allocs);
      if (rep == 0 || r.elapsed_sec < s.r.elapsed_sec) {
        s.r = r;
      }
      s.r.steady_allocs = worst_steady;
    }
  }
  std::printf("e2e closed loop      IOs/sec    allocs/IO (steady)   ebusy\n");
  for (const auto& s : stacks) {
    std::printf("  %-12s  %10.0f    %8.3f             %llu\n", s.name, s.r.ios_per_sec(),
                s.r.steady_allocs_per_io(), static_cast<unsigned long long>(s.r.ebusy));
  }

  FILE* out = std::fopen("BENCH_hotpath.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"benchmark\": \"hotpath\",\n"
        "  \"workload\": {\"target_ios\": %llu, \"warmup_ios\": %llu,\n"
        "               \"predict_calls\": %llu, \"streams\": 9,\n"
        "               \"file_mib\": 512, \"cache_mib\": 64, \"seed\": 41},\n"
        "  \"predict_ns_per_call\": {\n"
        "    \"cfq_depth1\": %.1f, \"cfq_depth256\": %.1f,\n"
        "    \"noop_depth1\": %.1f, \"noop_depth256\": %.1f,\n"
        "    \"ssd_depth1\": %.1f, \"ssd_depth256\": %.1f,\n"
        "    \"cfq_depth_ratio\": %.3f},\n"
        "  \"e2e\": {\n"
        "    \"disk_cfq\":  {\"ios_per_sec\": %.0f, \"ios\": %llu, \"ebusy\": %llu,\n"
        "                  \"allocs\": %llu, \"steady_allocs\": %llu,\n"
        "                  \"steady_allocs_per_io\": %.4f},\n"
        "    \"disk_noop\": {\"ios_per_sec\": %.0f, \"ios\": %llu, \"ebusy\": %llu,\n"
        "                  \"allocs\": %llu, \"steady_allocs\": %llu,\n"
        "                  \"steady_allocs_per_io\": %.4f},\n"
        "    \"ssd\":       {\"ios_per_sec\": %.0f, \"ios\": %llu, \"ebusy\": %llu,\n"
        "                  \"allocs\": %llu, \"steady_allocs\": %llu,\n"
        "                  \"steady_allocs_per_io\": %.4f}}\n"
        "}\n",
        static_cast<unsigned long long>(target), static_cast<unsigned long long>(warmup),
        static_cast<unsigned long long>(predict_calls), d1.cfq_ns, d256.cfq_ns, d1.noop_ns,
        d256.noop_ns, d1.ssd_ns, d256.ssd_ns, d1.cfq_ns > 0 ? d256.cfq_ns / d1.cfq_ns : 0,
        stacks[0].r.ios_per_sec(), static_cast<unsigned long long>(stacks[0].r.ios),
        static_cast<unsigned long long>(stacks[0].r.ebusy),
        static_cast<unsigned long long>(stacks[0].r.allocs),
        static_cast<unsigned long long>(stacks[0].r.steady_allocs),
        stacks[0].r.steady_allocs_per_io(), stacks[1].r.ios_per_sec(),
        static_cast<unsigned long long>(stacks[1].r.ios),
        static_cast<unsigned long long>(stacks[1].r.ebusy),
        static_cast<unsigned long long>(stacks[1].r.allocs),
        static_cast<unsigned long long>(stacks[1].r.steady_allocs),
        stacks[1].r.steady_allocs_per_io(), stacks[2].r.ios_per_sec(),
        static_cast<unsigned long long>(stacks[2].r.ios),
        static_cast<unsigned long long>(stacks[2].r.ebusy),
        static_cast<unsigned long long>(stacks[2].r.allocs),
        static_cast<unsigned long long>(stacks[2].r.steady_allocs),
        stacks[2].r.steady_allocs_per_io());
    std::fclose(out);
    std::printf("wrote BENCH_hotpath.json\n");
  }
  return 0;
}
