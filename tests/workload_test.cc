#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/os/os.h"
#include "src/sim/simulator.h"
#include "src/workload/macro_workload.h"
#include "src/workload/synthetic_trace.h"
#include "src/workload/ycsb.h"

namespace mitt::workload {
namespace {

TEST(YcsbTest, UniformCoversKeySpace) {
  YcsbWorkload::Options opt;
  opt.num_keys = 100;
  opt.distribution = KeyDistribution::kUniform;
  YcsbWorkload ycsb(opt);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto op = ycsb.Next();
    ASSERT_LT(op.key, 100u);
    EXPECT_TRUE(op.is_read);  // read_fraction = 1.
    ++hits[op.key];
  }
  for (const int h : hits) {
    EXPECT_GT(h, 100);
  }
}

TEST(YcsbTest, ZipfianIsSkewedButScrambled) {
  YcsbWorkload::Options opt;
  opt.num_keys = 10000;
  opt.distribution = KeyDistribution::kZipfian;
  YcsbWorkload ycsb(opt);
  std::map<uint64_t, int> hits;
  for (int i = 0; i < 50000; ++i) {
    ++hits[ycsb.Next().key];
  }
  int max_hits = 0;
  uint64_t hottest = 0;
  for (const auto& [key, count] : hits) {
    if (count > max_hits) {
      max_hits = count;
      hottest = key;
    }
  }
  EXPECT_GT(max_hits, 1000);  // Strong skew.
  EXPECT_NE(hottest, 0u);     // Scrambling moved the hot key off 0.
}

TEST(YcsbTest, ReadFractionRespected) {
  YcsbWorkload::Options opt;
  opt.num_keys = 1000;
  opt.read_fraction = 0.3;
  opt.distribution = KeyDistribution::kUniform;
  YcsbWorkload ycsb(opt);
  int reads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    reads += ycsb.Next().is_read ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.3, 0.02);
}

TEST(SyntheticTraceTest, FiveProfilesWithPaperNames) {
  const auto& profiles = PaperTraceProfiles();
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_EQ(profiles[0].name, "DAPPS");
  EXPECT_EQ(profiles[1].name, "DTRS");
  EXPECT_EQ(profiles[2].name, "EXCH");
  EXPECT_EQ(profiles[3].name, "LMBE");
  EXPECT_EQ(profiles[4].name, "TPCC");
}

// Every event a fresh cursor over `profile` yields.
std::vector<trace::TraceEvent> DrainTrace(const TraceProfile& profile, DurationNs duration,
                                          uint64_t seed) {
  SyntheticTraceCursor cursor(profile, duration, seed);
  std::vector<trace::TraceEvent> out;
  trace::TraceEvent event;
  while (cursor.Next(&event)) {
    out.push_back(event);
  }
  return out;
}

TEST(SyntheticTraceTest, RecordsSortedAndInRange) {
  for (const auto& profile : PaperTraceProfiles()) {
    const auto trace = DrainTrace(profile, Seconds(10), 3);
    ASSERT_GT(trace.size(), 500u) << profile.name;
    TimeNs prev = -1;
    for (const auto& rec : trace) {
      EXPECT_GE(rec.at, prev);
      prev = rec.at;
      EXPECT_GE(rec.offset, 0);
      EXPECT_LE(rec.offset + static_cast<int64_t>(rec.len), profile.span_bytes);
      EXPECT_GT(rec.len, 0u);
    }
  }
}

TEST(SyntheticTraceTest, ReadRatioApproximatelyMatchesProfile) {
  for (const auto& profile : PaperTraceProfiles()) {
    const auto trace = DrainTrace(profile, Seconds(30), 5);
    int reads = 0;
    for (const auto& rec : trace) {
      reads += rec.op == trace::kOpRead ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(trace.size()),
                profile.read_ratio, 0.05)
        << profile.name;
  }
}

TEST(SyntheticTraceTest, DeterministicPerSeed) {
  const auto& profile = PaperTraceProfiles()[0];
  const auto a = DrainTrace(profile, Seconds(5), 9);
  const auto b = DrainTrace(profile, Seconds(5), 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].offset, b[i].offset);
  }
  const auto c = DrainTrace(profile, Seconds(5), 10);
  EXPECT_NE(a.size(), c.size());
}

TEST(SyntheticTraceTest, BurstsPresent) {
  // Arrival-rate variance across 100ms windows should far exceed a Poisson
  // process with the same mean (burstiness).
  const auto trace = DrainTrace(PaperTraceProfiles()[2], Seconds(30), 7);  // EXCH.
  std::vector<int> window_counts(300, 0);
  for (const auto& rec : trace) {
    ++window_counts[static_cast<size_t>(rec.at / Millis(100))];
  }
  double mean = 0;
  for (const int c : window_counts) {
    mean += c;
  }
  mean /= static_cast<double>(window_counts.size());
  double var = 0;
  for (const int c : window_counts) {
    var += (c - mean) * (c - mean);
  }
  var /= static_cast<double>(window_counts.size());
  EXPECT_GT(var / mean, 3.0);  // Fano factor >> 1.
}

TEST(MacroWorkloadTest, ProfilesIssueIoUntilHorizon) {
  for (const MacroProfile profile :
       {MacroProfile::kFileserver, MacroProfile::kVarmail, MacroProfile::kWebserver}) {
    sim::Simulator sim;
    os::OsOptions opt;
    opt.backend = os::BackendKind::kDiskCfq;
    opt.mitt_enabled = false;
    os::Os target(&sim, opt);
    const int64_t file_size = 50LL << 30;
    const uint64_t file = target.CreateFile(file_size);
    MacroWorkload::Options wopt;
    wopt.profile = profile;
    wopt.threads = 2;
    MacroWorkload workload(&sim, &target, file, file_size, wopt, 3);
    workload.Start(Millis(500));
    sim.Run();
    EXPECT_GT(workload.ios_issued(), 10u) << MacroProfileName(profile);
    EXPECT_GE(sim.Now(), Millis(400));
  }
}

TEST(MacroWorkloadTest, HadoopScansInBursts) {
  sim::Simulator sim;
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = false;
  os::Os target(&sim, opt);
  const int64_t file_size = 50LL << 30;
  const uint64_t file = target.CreateFile(file_size);
  MacroWorkload::Options wopt;
  wopt.profile = MacroProfile::kHadoop;
  wopt.threads = 1;
  MacroWorkload workload(&sim, &target, file, file_size, wopt, 3);
  workload.Start(Seconds(20));
  sim.Run();
  EXPECT_GT(workload.ios_issued(), 8u);
}

}  // namespace
}  // namespace mitt::workload
