#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace mitt::os {
namespace {

class OsTest : public ::testing::Test {
 protected:
  OsOptions BaseOptions(BackendKind backend) {
    OsOptions opt;
    opt.backend = backend;
    opt.seed = 7;
    return opt;
  }

  sim::Simulator sim_;
};

TEST_F(OsTest, CacheHitIsFast) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 20);
  os.Prefault(file, 0, 1 << 20);
  Status result = Status::Internal();
  TimeNs done_at = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 4096;
  args.size = 1024;
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    done_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_TRUE(result.ok());
  EXPECT_LE(done_at, Micros(50));
}

TEST_F(OsTest, CacheMissGoesToDisk) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 30);
  Status result = Status::Internal();
  TimeNs done_at = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 100 << 20;
  args.size = 4096;
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    done_at = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done_at >= 0; });
  EXPECT_TRUE(result.ok());
  EXPECT_GT(done_at, kMillisecond);  // Mechanical IO.
  // And the pages are now cached: a re-read is fast.
  TimeNs start = sim_.Now();
  TimeNs second = -1;
  os.ReadWithWaitHint(args, [&](Status, DurationNs) { second = sim_.Now(); });
  sim_.RunUntilPredicate([&] { return second >= 0; });
  EXPECT_LE(second - start, Micros(50));
}

TEST_F(OsTest, TinyDeadlineOnMissRejectedImmediately) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 30);
  Status result = Status::Internal();
  TimeNs done_at = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 0;
  args.size = 4096;
  args.deadline = Micros(100);  // The user expects an in-memory read (§4.4).
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    done_at = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done_at >= 0; });
  EXPECT_TRUE(result.busy());
  EXPECT_LE(done_at, Micros(10));  // <5us EBUSY path (§3.3).
}

TEST_F(OsTest, VanillaOsIgnoresDeadlines) {
  OsOptions opt = BaseOptions(BackendKind::kDiskCfq);
  opt.mitt_enabled = false;
  Os os(&sim_, opt);
  const uint64_t file = os.CreateFile(1 << 30);
  Status result = Status::Internal();
  TimeNs done_at = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 0;
  args.size = 4096;
  args.deadline = Micros(100);
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    done_at = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done_at >= 0; });
  EXPECT_TRUE(result.ok());  // Waited out the whole disk IO instead.
  EXPECT_GT(done_at, Micros(200));  // Mechanical IO, not the ~2us EBUSY path.
}

TEST_F(OsTest, BusyDiskRejectsDeadlineRead) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(100LL << 30);
  // Saturate the disk with noise reads (bypass cache, no deadline).
  int noise_done = 0;
  for (int i = 0; i < 40; ++i) {
    Os::ReadArgs noise;
    noise.file = file;
    noise.offset = static_cast<int64_t>(i) * (1LL << 30);
    noise.size = 1 << 20;
    noise.pid = 99;
    noise.bypass_cache = true;
    os.ReadWithWaitHint(noise, [&](Status, DurationNs) { ++noise_done; });
  }
  Status result = Status::Internal();
  Os::ReadArgs args;
  args.file = file;
  args.offset = 50LL << 30;
  args.size = 4096;
  args.deadline = Millis(20);
  args.pid = 1;
  bool got = false;
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    got = true;
  });
  sim_.RunUntilPredicate([&] { return got; });
  EXPECT_TRUE(result.busy());
  sim_.Run();
  EXPECT_EQ(noise_done, 40);
}

TEST_F(OsTest, AddrCheckResidentOk) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 20);
  os.Prefault(file, 0, 1 << 20);
  const auto result = os.AddrCheck(file, 4096, 1024, Micros(100));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.cost, 82);
}

TEST_F(OsTest, AddrCheckMissReturnsEbusyAndSwapsInBackground) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 30);
  const auto result = os.AddrCheck(file, 0, 4096, Micros(100));
  EXPECT_TRUE(result.status.busy());
  // §4.4: the OS keeps swapping the data in even after EBUSY.
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(os.cache().Resident(file, 0, 4096));
  const auto again = os.AddrCheck(file, 0, 4096, Micros(100));
  EXPECT_TRUE(again.status.ok());
}

TEST_F(OsTest, AddrCheckLargeDeadlineToleratesMiss) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 30);
  // Deadline far above any disk latency: the caller is willing to fault.
  const auto result = os.AddrCheck(file, 0, 4096, Millis(100));
  EXPECT_TRUE(result.status.ok());
}

TEST_F(OsTest, MmapAccessFaultsAndCaches) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(1 << 30);
  TimeNs done_at = -1;
  os.MmapAccess(file, 8192, 1024, 1, [&](Status s) {
    EXPECT_TRUE(s.ok());
    done_at = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done_at >= 0; });
  EXPECT_GT(done_at, kMillisecond);  // Page fault hit the disk.
  TimeNs start = sim_.Now();
  TimeNs second = -1;
  os.MmapAccess(file, 8192, 1024, 1, [&](Status) { second = sim_.Now(); });
  sim_.RunUntilPredicate([&] { return second >= 0; });
  EXPECT_LE(second - start, Micros(5));  // Now resident.
}

TEST_F(OsTest, BufferedWriteAcksFastDespiteBusyDisk) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    Os::ReadArgs noise;
    noise.file = file;
    noise.offset = static_cast<int64_t>(i) * (1LL << 30);
    noise.size = 1 << 20;
    noise.pid = 99;
    noise.bypass_cache = true;
    os.ReadWithWaitHint(noise, nullptr);
  }
  TimeNs start = sim_.Now();
  TimeNs acked = -1;
  Os::WriteArgs w;
  w.file = file;
  w.offset = 60LL << 30;
  w.size = 4096;
  os.Write(w, [&](Status s, DurationNs) {
    EXPECT_TRUE(s.ok());
    acked = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return acked >= 0; });
  EXPECT_LE(acked - start, Micros(100));  // §7.8.6: writes are unaffected.
}

TEST_F(OsTest, DropCachedFractionEvictsAboutThatMuch) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(400 << 20);
  os.Prefault(file, 0, 400 << 20);
  const size_t before = os.cache().resident_pages();
  os.DropCachedFraction(0.2);
  const size_t after = os.cache().resident_pages();
  const double dropped = 1.0 - static_cast<double>(after) / static_cast<double>(before);
  EXPECT_NEAR(dropped, 0.2, 0.03);
}

TEST_F(OsTest, SsdBackendReadAndReject) {
  Os os(&sim_, BaseOptions(BackendKind::kSsd));
  const uint64_t file = os.CreateFile(1 << 30);
  Status result = Status::Internal();
  TimeNs done_at = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 0;
  args.size = 4096;
  args.deadline = Millis(2);
  args.bypass_cache = true;
  os.ReadWithWaitHint(args, [&](Status s, DurationNs) {
    result = s;
    done_at = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done_at >= 0; });
  EXPECT_TRUE(result.ok());
  EXPECT_LT(done_at, Millis(1));  // ~100us page read.
}

TEST_F(OsTest, ReadWithWaitHintReportsQueueDelay) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    Os::ReadArgs noise;
    noise.file = file;
    noise.offset = static_cast<int64_t>(i) * (1LL << 30);
    noise.size = 1 << 20;
    noise.pid = 99;
    noise.bypass_cache = true;
    os.ReadWithWaitHint(noise, nullptr);
  }
  Status result = Status::Internal();
  DurationNs hint = -1;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 50LL << 30;
  args.size = 4096;
  args.deadline = Millis(20);
  args.pid = 1;
  bool got = false;
  os.ReadWithWaitHint(args, [&](Status s, DurationNs h) {
    result = s;
    hint = h;
    got = true;
  });
  sim_.RunUntilPredicate([&] { return got; });
  EXPECT_TRUE(result.busy());
  EXPECT_GT(hint, Millis(20));  // The predicted wait that triggered EBUSY.
  sim_.Run();
}

TEST_F(OsTest, EbusyHintMatchesPredictorAndIsObservedOnce) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  sim_.set_tracer(&tracer);
  sim_.set_metrics(&metrics);
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t file = os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    Os::ReadArgs noise;
    noise.file = file;
    noise.offset = static_cast<int64_t>(i) * (1LL << 30);
    noise.size = 1 << 20;
    noise.pid = 99;
    noise.bypass_cache = true;
    os.ReadWithWaitHint(noise, nullptr);
  }
  // The hint handed back with EBUSY must be the predictor's wait estimate at
  // submission time, not a post-hoc number: capture it just before the call.
  const DurationNs expected_wait =
      os.mitt_cfq()->PredictedWaitNow(/*pid=*/1, sched::IoClass::kBestEffort);
  Status result = Status::Internal();
  DurationNs hint = -1;
  bool got = false;
  Os::ReadArgs args;
  args.file = file;
  args.offset = 50LL << 30;
  args.size = 4096;
  args.deadline = Millis(20);
  args.pid = 1;
  args.trace = {tracer.NewRequestId(), /*node=*/-1};
  os.ReadWithWaitHint(args, [&](Status s, DurationNs h) {
    result = s;
    hint = h;
    got = true;
  });
  sim_.RunUntilPredicate([&] { return got; });
  ASSERT_TRUE(result.busy());
  EXPECT_EQ(hint, expected_wait);
  EXPECT_GT(hint, Millis(20));
#if MITT_OBS_ENABLED
  // Exactly one rejection: one ebusy_reject span, one ebusy_total increment.
  // (Boot profiling and the noise reads carry no deadline, so nothing else
  // can reject.)
  int reject_spans = 0;
  for (const obs::SpanRecord& span : tracer.OrderedSpans()) {
    if (span.kind == obs::SpanKind::kEbusyReject) {
      ++reject_spans;
      EXPECT_EQ(span.request_id, args.trace.id);
    }
  }
  EXPECT_EQ(reject_spans, 1);
  EXPECT_EQ(metrics.CounterValue("ebusy_total", -1), 1u);
#endif
  sim_.Run();
}

TEST_F(OsTest, FileAllocationDoesNotOverlap) {
  Os os(&sim_, BaseOptions(BackendKind::kDiskCfq));
  const uint64_t a = os.CreateFile(10 << 20);
  const uint64_t b = os.CreateFile(10 << 20);
  EXPECT_NE(a, b);
  EXPECT_NE(os.FileBase(a), os.FileBase(b));
  EXPECT_GE(os.FileBase(b), os.FileBase(a) + (10 << 20));
}

}  // namespace
}  // namespace mitt::os
