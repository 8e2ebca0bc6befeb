// Figure 3 (§6): millisecond-level latency dynamism in multi-tenant nodes.
// 20 nodes per device class, probe IOs on a fixed cadence (4KB / 100ms for
// disk; 4KB / 20ms for SSD and OS cache), EC2-style noisy-neighbor episodes.
// Reproduces the three observations:
//   #1 long tails start around p97 (disk >20ms, SSD >0.5ms, cache >0.05ms);
//   #2 noise inter-arrivals are bursty and spread over seconds;
//   #3 mostly only 1-2 of 20 nodes are busy simultaneously.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/latency_recorder.h"
#include "src/common/table.h"
#include "src/noise/ec2_noise.h"
#include "src/noise/noise_injector.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace {

using namespace mitt;

struct DeviceStudy {
  const char* name;
  os::BackendKind backend;
  DurationNs probe_interval;
  DurationNs busy_threshold;  // "Noisy period" latency threshold (§6).
  bool cache_resident;
};

struct NodeSeries {
  LatencyRecorder latencies;
  std::vector<std::pair<TimeNs, DurationNs>> samples;
};

// One node's prober: a 4KB read, then the next one a probe interval after
// the last one started ("≥20ms sleep is used"). All probers share one RNG.
struct Prober {
  sim::Simulator* sim;
  Rng* rng;
  os::Os* target;
  uint64_t file;
  TimeNs horizon;
  const DeviceStudy* study;
  NodeSeries* series;

  void Probe() {
    if (sim->Now() >= horizon) {
      return;
    }
    os::Os::ReadArgs args;
    args.file = file;
    args.offset = rng->UniformInt(0, (4LL << 30) - 8192);
    args.size = 4096;
    args.bypass_cache = !study->cache_resident;
    const TimeNs start = sim->Now();
    target->ReadWithWaitHint(args, [this, start](Status, DurationNs) {
      series->latencies.Record(sim->Now() - start);
      series->samples.emplace_back(start, sim->Now() - start);
      sim->ScheduleAt(start + study->probe_interval, [this] { Probe(); });
    });
  }
};

void RunStudy(const DeviceStudy& study, TimeNs horizon, uint64_t seed) {
  sim::Simulator sim;
  constexpr int kNodes = 20;
  noise::Ec2NoiseParams noise_params;  // Full-scale EC2 preset.
  const noise::Ec2NoiseModel model(noise_params, seed);

  std::vector<std::unique_ptr<os::Os>> systems;
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> io_noise;
  std::vector<std::unique_ptr<noise::CacheNoiseInjector>> cache_noise;
  std::vector<uint64_t> probe_files;
  std::vector<NodeSeries> series(kNodes);

  for (int node = 0; node < kNodes; ++node) {
    os::OsOptions opt;
    opt.backend = study.backend;
    opt.mitt_enabled = false;
    opt.seed = seed ^ static_cast<uint64_t>(node) * 31;
    systems.push_back(std::make_unique<os::Os>(&sim, opt));
    os::Os& target = *systems.back();
    const int64_t probe_size = 4LL << 30;  // 4 GB probe region (3.5GB file, §6).
    probe_files.push_back(target.CreateFile(probe_size));
    if (study.cache_resident) {
      target.Prefault(probe_files.back(), 0, probe_size);
      noise::CacheNoiseInjector::Options copt;
      copt.file = probe_files.back();
      copt.file_size = probe_size;
      copt.drop_fraction_per_intensity = 0.02;
      cache_noise.push_back(std::make_unique<noise::CacheNoiseInjector>(
          &sim, &target, model.GenerateSchedule(node, horizon), copt,
          seed ^ (0xCA0ULL + static_cast<uint64_t>(node))));
      cache_noise.back()->Start();
    } else {
      const int64_t noise_size = 200LL << 30;
      const uint64_t noise_file = target.CreateFile(noise_size);
      noise::IoNoiseInjector::Options nopt;
      // SSD noise must spread across chips to be visible to random probes:
      // large striped writes touch most of the 128 chips at once.
      nopt.io_size = study.backend == os::BackendKind::kSsd ? (512 << 10) : (1 << 20);
      nopt.streams_per_intensity = study.backend == os::BackendKind::kSsd ? 3 : 2;
      nopt.op = study.backend == os::BackendKind::kSsd ? sched::IoOp::kWrite
                                                       : sched::IoOp::kRead;
      io_noise.push_back(std::make_unique<noise::IoNoiseInjector>(
          &sim, &target, noise_file, noise_size, model.GenerateSchedule(node, horizon), nopt,
          seed ^ (0xAB00ULL + static_cast<uint64_t>(node))));
      io_noise.back()->Start();
    }
  }

  // Probers: one 4KB read per interval per node.
  Rng probe_rng(seed ^ 0x9807);
  std::vector<std::unique_ptr<Prober>> probers;
  for (int node = 0; node < kNodes; ++node) {
    const auto n = static_cast<size_t>(node);
    probers.push_back(std::make_unique<Prober>(&sim, &probe_rng, systems[n].get(), probe_files[n],
                                               horizon, &study, &series[n]));
    sim.Schedule(node * Millis(1), [prober = probers.back().get()] { prober->Probe(); });
  }

  sim.RunUntil(horizon + Seconds(2));
  sim.Run();

  // --- Fig 3a-c: per-node latency percentiles (aggregate + spread) ---
  LatencyRecorder all;
  for (const auto& s : series) {
    for (const DurationNs v : s.latencies.samples()) {
      all.Record(v);
    }
  }
  std::printf("\n--- Fig 3 (%s): probe latency CDF, %d nodes x %zu probes ---\n", study.name,
              kNodes, series[0].latencies.count());
  Table lat({"pct", "aggregate (ms)", "min node (ms)", "max node (ms)"});
  for (const double p : {50.0, 90.0, 97.0, 99.0, 99.9}) {
    DurationNs lo = series[0].latencies.Percentile(p);
    DurationNs hi = lo;
    for (const auto& s : series) {
      lo = std::min(lo, s.latencies.Percentile(p));
      hi = std::max(hi, s.latencies.Percentile(p));
    }
    lat.AddRow({"p" + Table::Num(p, p == static_cast<int>(p) ? 0 : 1),
                Table::Num(ToMillis(all.Percentile(p)), 3), Table::Num(ToMillis(lo), 3),
                Table::Num(ToMillis(hi), 3)});
  }
  lat.Print();
  std::printf("fraction of probes above busy threshold (%.2fms): %.2f%%\n",
              ToMillis(study.busy_threshold), 100.0 * (1.0 - all.FractionBelow(study.busy_threshold)));

  // --- Fig 3d-f: noisy-period inter-arrival spread ---
  LatencyRecorder inter_arrivals;
  for (const auto& s : series) {
    TimeNs last_noisy = -1;
    for (const auto& [at, lat_ns] : s.samples) {
      if (lat_ns > study.busy_threshold) {
        if (last_noisy >= 0 && at - last_noisy > study.probe_interval) {
          inter_arrivals.Record(at - last_noisy);
        }
        last_noisy = at;
      }
    }
  }
  if (!inter_arrivals.empty()) {
    std::printf("noise inter-arrivals: p25=%.1fs p50=%.1fs p75=%.1fs p95=%.1fs (bursty spread)\n",
                ToSeconds(inter_arrivals.Percentile(25)), ToSeconds(inter_arrivals.Percentile(50)),
                ToSeconds(inter_arrivals.Percentile(75)), ToSeconds(inter_arrivals.Percentile(95)));
  }

  // --- Fig 3g: #nodes busy simultaneously (100ms windows) ---
  const auto windows = static_cast<size_t>(horizon / Millis(100));
  std::vector<std::vector<char>> busy_by_window(kNodes, std::vector<char>(windows, 0));
  for (int node = 0; node < kNodes; ++node) {
    for (const auto& [at, lat_ns] : series[static_cast<size_t>(node)].samples) {
      const auto w = static_cast<size_t>(at / Millis(100));
      if (w < windows && lat_ns > study.busy_threshold) {
        busy_by_window[static_cast<size_t>(node)][w] = 1;
      }
    }
  }
  std::vector<int> busy_hist(6, 0);
  for (size_t w = 0; w < windows; ++w) {
    int busy = 0;
    for (int node = 0; node < kNodes; ++node) {
      busy += busy_by_window[static_cast<size_t>(node)][w];
    }
    ++busy_hist[static_cast<size_t>(std::min(busy, 5))];
  }
  std::printf("P(N nodes busy simultaneously): ");
  for (int n = 0; n <= 4; ++n) {
    std::printf("N=%d:%.1f%% ", n, 100.0 * busy_hist[static_cast<size_t>(n)] / windows);
  }
  std::printf("N>=5:%.1f%%\n", 100.0 * busy_hist[5] / windows);
}

}  // namespace

int main() {
  std::printf("=== Figure 3: millisecond dynamism (EC2-style multi-tenant noise) ===\n");
  const TimeNs horizon = Seconds(240);  // 4 simulated minutes per device class.
  RunStudy({"Disk", os::BackendKind::kDiskCfq, Millis(100), Millis(20), false}, horizon, 31);
  RunStudy({"SSD", os::BackendKind::kSsd, Millis(20), kMillisecond, false}, horizon, 32);
  RunStudy({"OS cache", os::BackendKind::kDiskCfq, Millis(20), Micros(50), true}, horizon, 33);
  return 0;
}
