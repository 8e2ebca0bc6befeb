#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/noise/ec2_noise.h"
#include "src/noise/noise_injector.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace mitt::noise {
namespace {

TEST(Ec2NoiseModelTest, DeterministicSchedules) {
  Ec2NoiseModel a(Ec2NoiseParams{}, 7);
  Ec2NoiseModel b(Ec2NoiseParams{}, 7);
  const auto sa = a.GenerateSchedule(3, Seconds(600));
  const auto sb = b.GenerateSchedule(3, Seconds(600));
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].start, sb[i].start);
    EXPECT_EQ(sa[i].duration, sb[i].duration);
    EXPECT_EQ(sa[i].intensity, sb[i].intensity);
  }
}

TEST(Ec2NoiseModelTest, NodesDiffer) {
  Ec2NoiseModel model(Ec2NoiseParams{}, 7);
  const auto s0 = model.GenerateSchedule(0, Seconds(600));
  const auto s1 = model.GenerateSchedule(1, Seconds(600));
  ASSERT_FALSE(s0.empty());
  ASSERT_FALSE(s1.empty());
  EXPECT_NE(s0.front().start, s1.front().start);
}

TEST(Ec2NoiseModelTest, EpisodesWithinHorizonAndSubSecondBursts) {
  Ec2NoiseModel model(Ec2NoiseParams{}, 11);
  for (int node = 0; node < 20; ++node) {
    for (const auto& ep : model.GenerateSchedule(node, Seconds(600))) {
      EXPECT_GE(ep.start, 0);
      EXPECT_LT(ep.start, Seconds(600));
      EXPECT_GE(ep.duration, Ec2NoiseParams{}.min_on);
      EXPECT_LE(ep.duration, Ec2NoiseParams{}.max_on + kMillisecond);
      EXPECT_GE(ep.intensity, 1);
      EXPECT_LE(ep.intensity, Ec2NoiseParams{}.max_intensity);
    }
  }
}

TEST(Ec2NoiseModelTest, BusyFractionFewPercent) {
  Ec2NoiseModel model(Ec2NoiseParams{}, 13);
  double total = 0;
  for (int node = 0; node < 20; ++node) {
    const double f = model.BusyFraction(node, Seconds(3600));
    EXPECT_GT(f, 0.001) << node;
    EXPECT_LT(f, 0.25) << node;
    total += f;
  }
  // Average busy fraction calibrated to the §6 observations (~1.5-5%).
  EXPECT_GT(total / 20, 0.005);
  EXPECT_LT(total / 20, 0.09);
}

TEST(Ec2NoiseModelTest, SimultaneouslyBusyNodesMatchObservation3) {
  // Sample the 20-node busy-count distribution at 100ms granularity and
  // check Fig. 3g's shape: P(N) diminishes rapidly; 1-2 busy nodes dominate
  // the busy mass.
  Ec2NoiseModel model(Ec2NoiseParams{}, 17);
  const TimeNs horizon = Seconds(3600);
  std::vector<std::vector<NoiseEpisode>> schedules;
  schedules.reserve(20);
  for (int node = 0; node < 20; ++node) {
    schedules.push_back(model.GenerateSchedule(node, horizon));
  }
  std::vector<int> count_hist(21, 0);
  int samples = 0;
  for (TimeNs t = 0; t < horizon; t += Millis(100)) {
    int busy = 0;
    for (const auto& schedule : schedules) {
      for (const auto& ep : schedule) {
        if (t >= ep.start && t < ep.start + ep.duration) {
          ++busy;
          break;
        }
      }
    }
    ++count_hist[static_cast<size_t>(busy)];
    ++samples;
  }
  const double p0 = static_cast<double>(count_hist[0]) / samples;
  const double p1 = static_cast<double>(count_hist[1]) / samples;
  const double p2 = static_cast<double>(count_hist[2]) / samples;
  const double p3 = static_cast<double>(count_hist[3]) / samples;
  EXPECT_GT(p0, 0.45);
  EXPECT_GT(p1, p2);
  EXPECT_GT(p2, p3);
  EXPECT_GT(p1, 0.1);
  EXPECT_LT(p1, 0.45);
}

TEST(Ec2NoiseModelTest, InterArrivalsSpreadOverSeconds) {
  Ec2NoiseModel model(Ec2NoiseParams{}, 19);
  const auto schedule = model.GenerateSchedule(0, Seconds(7200));
  ASSERT_GT(schedule.size(), 10u);
  DurationNs min_gap = Seconds(10000);
  DurationNs max_gap = 0;
  for (size_t i = 1; i < schedule.size(); ++i) {
    const DurationNs gap = schedule[i].start - (schedule[i - 1].start + schedule[i - 1].duration);
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  // Bursty: gaps span from sub-second to many seconds (no fixed period).
  EXPECT_LT(min_gap, Seconds(2));
  EXPECT_GT(max_gap, Seconds(15));
}

TEST(IoNoiseInjectorTest, EpisodesMakeDiskBusy) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const int64_t file_size = 50LL << 30;
  const uint64_t file = target.CreateFile(file_size);

  IoNoiseInjector::Options nopt;
  nopt.io_size = 1 << 20;
  nopt.streams_per_intensity = 2;
  IoNoiseInjector injector(&sim, &target, file, file_size,
                           {NoiseEpisode{Millis(10), Millis(500), 2}}, nopt, 5);
  injector.Start();

  sim.RunUntil(Millis(200));
  EXPECT_TRUE(injector.noisy_now());
  EXPECT_GT(target.disk()->Occupancy(), 0u);
  sim.RunUntil(Seconds(2));
  sim.Run();
  EXPECT_FALSE(injector.noisy_now());
  EXPECT_GT(injector.ios_issued(), 20u);
}

TEST(IoNoiseInjectorTest, ProbeLatencyRisesDuringEpisode) {
  auto probe_latency = [](bool with_noise) {
    sim::Simulator sim;
    os::OsOptions opt;
    opt.backend = os::BackendKind::kDiskCfq;
    opt.mitt_enabled = false;
    os::Os target(&sim, opt);
    const int64_t file_size = 50LL << 30;
    const uint64_t file = target.CreateFile(file_size);
    std::unique_ptr<IoNoiseInjector> injector;
    if (with_noise) {
      IoNoiseInjector::Options nopt;
      injector = std::make_unique<IoNoiseInjector>(
          &sim, &target, file, file_size,
          std::vector<NoiseEpisode>{NoiseEpisode{0, Seconds(2), 3}}, nopt, 5);
      injector->Start();
    }
    sim.RunUntil(Millis(100));
    TimeNs done = -1;
    const TimeNs start = sim.Now();
    os::Os::ReadArgs args;
    args.file = file;
    args.offset = 10LL << 30;
    args.size = 4096;
    args.bypass_cache = true;
    target.ReadWithWaitHint(args, [&](Status, DurationNs) { done = sim.Now(); });
    sim.RunUntilPredicate([&] { return done >= 0; });
    return done - start;
  };
  const DurationNs quiet = probe_latency(false);
  const DurationNs noisy = probe_latency(true);
  EXPECT_LT(quiet, Millis(12));
  EXPECT_GT(noisy, quiet * 2);
}

// A long schedule costs one pending event: each episode queues the next as
// it begins. Episode i runs over [100i, 100i + 10) ms.
std::vector<NoiseEpisode> LongSchedule() {
  std::vector<NoiseEpisode> schedule;
  for (int i = 0; i < 1000; ++i) {
    schedule.push_back({i * Millis(100), Millis(10), 1});
  }
  return schedule;
}

TEST(IoNoiseInjectorTest, KeepsOneEpisodePending) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const int64_t file_size = 1LL << 30;
  const uint64_t file = target.CreateFile(file_size);
  IoNoiseInjector::Options nopt;
  nopt.io_size = 4096;
  IoNoiseInjector injector(&sim, &target, file, file_size, LongSchedule(), nopt, 5);
  const size_t before = sim.pending_events();
  injector.Start();
  EXPECT_EQ(sim.pending_events(), before + 1);
  for (int i = 0; i < 5; ++i) {
    sim.RunUntil(i * Millis(100) + Millis(5));
    EXPECT_TRUE(injector.noisy_now()) << "inside episode " << i;
    sim.RunUntil(i * Millis(100) + Millis(60));
    EXPECT_FALSE(injector.noisy_now()) << "after episode " << i;
  }
  sim.Run();
  EXPECT_EQ(injector.episodes_run(), 1000u);
  EXPECT_FALSE(injector.noisy_now());
}

TEST(CacheNoiseInjectorTest, DropsPagesAtEpisodes) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const uint64_t file = target.CreateFile(100 << 20);
  target.Prefault(file, 0, 100 << 20);
  const size_t before = target.cache().resident_pages();

  CacheNoiseInjector::Options nopt;
  nopt.file = file;
  nopt.file_size = 100 << 20;
  nopt.drop_fraction_per_intensity = 0.1;
  nopt.restore = false;
  CacheNoiseInjector injector(&sim, &target, {NoiseEpisode{Millis(5), Millis(100), 2}}, nopt, 3);
  injector.Start();
  sim.Run();
  const size_t after = target.cache().resident_pages();
  EXPECT_LT(after, before);
  // Chunked contiguous drops may overlap, so at most ~20% is gone.
  EXPECT_GT(static_cast<double>(after) / static_cast<double>(before), 0.75);
  EXPECT_LT(static_cast<double>(after) / static_cast<double>(before), 0.95);
}

TEST(CacheNoiseInjectorTest, RestoresPagesAfterEpisode) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const uint64_t file = target.CreateFile(100 << 20);
  target.Prefault(file, 0, 100 << 20);
  const size_t before = target.cache().resident_pages();

  CacheNoiseInjector::Options nopt;
  nopt.file = file;
  nopt.file_size = 100 << 20;
  nopt.drop_fraction_per_intensity = 0.2;
  CacheNoiseInjector injector(&sim, &target, {NoiseEpisode{Millis(5), Millis(100), 1}}, nopt, 3);
  injector.Start();
  sim.RunUntil(Millis(50));
  EXPECT_LT(target.cache().resident_pages(), before);  // Dropped mid-episode.
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(target.cache().resident_pages(), before);  // Swapped back in.
  EXPECT_EQ(injector.episodes_run(), 1u);
}

TEST(CacheNoiseInjectorTest, KeepsOneEpisodePending) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const uint64_t file = target.CreateFile(8 << 20);
  target.Prefault(file, 0, 8 << 20);
  const size_t resident = target.cache().resident_pages();

  CacheNoiseInjector::Options nopt;
  nopt.file = file;
  nopt.file_size = 8 << 20;
  nopt.drop_fraction_per_intensity = 0.2;
  CacheNoiseInjector injector(&sim, &target, LongSchedule(), nopt, 3);
  const size_t before = sim.pending_events();
  injector.Start();
  EXPECT_EQ(sim.pending_events(), before + 1);
  for (int i = 0; i < 5; ++i) {
    // Dropped inside the episode, swapped back in 50 ms after its end.
    sim.RunUntil(i * Millis(100) + Millis(5));
    EXPECT_LT(target.cache().resident_pages(), resident) << "inside episode " << i;
    EXPECT_EQ(injector.episodes_run(), static_cast<uint64_t>(i + 1));
    sim.RunUntil(i * Millis(100) + Millis(80));
    EXPECT_EQ(target.cache().resident_pages(), resident) << "after episode " << i;
  }
  sim.Run();
  EXPECT_EQ(injector.episodes_run(), 1000u);
}

TEST(NoiseInjectorTest, DecreasingStartThrows) {
  sim::Simulator sim;
  os::Os target(&sim, os::OsOptions{});
  const std::vector<NoiseEpisode> backwards = {{Millis(20), Millis(5), 1},
                                               {Millis(10), Millis(5), 1}};
  EXPECT_THROW(IoNoiseInjector(&sim, &target, target.CreateFile(1 << 20), 1 << 20, backwards,
                               IoNoiseInjector::Options{}, 1),
               std::invalid_argument);
  CacheNoiseInjector::Options copt;
  EXPECT_THROW(CacheNoiseInjector(&sim, &target, backwards, copt, 1), std::invalid_argument);
  // Equal starts keep their order: not a decrease.
  const std::vector<NoiseEpisode> tied = {{Millis(10), Millis(5), 1}, {Millis(10), Millis(5), 1}};
  EXPECT_NO_THROW(CacheNoiseInjector(&sim, &target, tied, copt, 1));
}

}  // namespace
}  // namespace mitt::noise
