#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/device/disk_model.h"
#include "src/device/disk_profile.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/sim/simulator.h"

namespace mitt::device {
namespace {

using sched::IoOp;
using sched::IoRequest;

std::unique_ptr<IoRequest> MakeRead(uint64_t id, int64_t offset, int64_t size) {
  auto req = std::make_unique<IoRequest>();
  req->id = id;
  req->op = IoOp::kRead;
  req->offset = offset;
  req->size = size;
  return req;
}

class DiskModelTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  DiskParams params_;
};

TEST_F(DiskModelTest, SingleReadCompletesWithinModelBounds) {
  DiskModel disk(&sim_, params_, 1);
  auto req = MakeRead(1, 500LL << 30, 4096);
  TimeNs done_at = -1;
  disk.set_completion_listener([&](IoRequest*) { done_at = sim_.Now(); });
  disk.Submit(req.get());
  sim_.Run();
  ASSERT_GE(done_at, 0);
  // A random 4KB read should land in the classic 3-12 ms window.
  EXPECT_GT(done_at, Millis(3));
  EXPECT_LT(done_at, Millis(12));
  EXPECT_EQ(disk.completed_count(), 1u);
}

TEST_F(DiskModelTest, ExpectedServiceTimeMatchesMeanOfSamples) {
  DiskModel disk(&sim_, params_, 2);
  auto probe = MakeRead(0, 300LL << 30, 4096);
  const DurationNs expected = disk.ExpectedServiceTime(0, *probe);
  // Sample many one-IO runs from a fixed head position and compare the mean.
  double sum = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    sim::Simulator sim;
    DiskModel d(&sim, params_, 100 + static_cast<uint64_t>(i));
    auto req = MakeRead(1, 300LL << 30, 4096);
    TimeNs done_at = 0;
    d.set_completion_listener([&](IoRequest*) { done_at = sim.Now(); });
    d.Submit(req.get());
    sim.Run();
    sum += static_cast<double>(done_at);
  }
  EXPECT_NEAR(sum / n, static_cast<double>(expected), 0.1 * static_cast<double>(expected));
}

TEST_F(DiskModelTest, SstfReordersByDistance) {
  DiskModel disk(&sim_, params_, 3);
  // First IO seizes the head near offset 0; then queue one far and one near.
  std::vector<uint64_t> completion_order;
  disk.set_completion_listener(
      [&](IoRequest* req) { completion_order.push_back(req->id); });
  auto near_head = MakeRead(1, 1LL << 30, 4096);
  auto far = MakeRead(2, 900LL << 30, 4096);
  auto near2 = MakeRead(3, 2LL << 30, 4096);
  disk.Submit(near_head.get());
  disk.Submit(far.get());    // Submitted before near2...
  disk.Submit(near2.get());  // ...but near2 is closer to the head.
  sim_.Run();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 1u);
  EXPECT_EQ(completion_order[1], 3u);  // SSTF serves the near IO first.
  EXPECT_EQ(completion_order[2], 2u);
}

TEST_F(DiskModelTest, QueueDepthRespected) {
  params_.queue_depth = 4;
  DiskModel disk(&sim_, params_, 4);
  std::vector<std::unique_ptr<IoRequest>> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(MakeRead(static_cast<uint64_t>(i), i * (10LL << 30), 4096));
    ASSERT_TRUE(disk.CanAccept());
    disk.Submit(reqs.back().get());
  }
  EXPECT_FALSE(disk.CanAccept());
  EXPECT_EQ(disk.Occupancy(), 4u);
  sim_.Run();
  EXPECT_TRUE(disk.CanAccept());
  EXPECT_TRUE(disk.idle());
}

TEST_F(DiskModelTest, NvramWriteAcksFast) {
  DiskModel disk(&sim_, params_, 5);
  auto req = MakeRead(1, 100LL << 30, 4096);
  req->op = IoOp::kWrite;
  TimeNs acked = -1;
  disk.set_completion_listener([&](IoRequest* r) {
    if (r->id == 1) {
      acked = sim_.Now();
    }
  });
  disk.Submit(req.get());
  sim_.Run();
  EXPECT_EQ(acked, params_.nvram_latency);
  // The background destage still happened (2 completions total).
  EXPECT_EQ(disk.completed_count(), 2u);
}

TEST_F(DiskModelTest, WriteWithoutNvramTakesMechanicalTime) {
  params_.nvram_writes = false;
  DiskModel disk(&sim_, params_, 6);
  auto req = MakeRead(1, 100LL << 30, 4096);
  req->op = IoOp::kWrite;
  TimeNs acked = -1;
  disk.set_completion_listener([&](IoRequest*) { acked = sim_.Now(); });
  disk.Submit(req.get());
  sim_.Run();
  EXPECT_GT(acked, Millis(2));
}

TEST_F(DiskModelTest, DestagesContendWithReads) {
  // A burst of buffered writes should delay a subsequent read (the destages
  // occupy the head), even though the writes themselves ack fast.
  DiskModel disk(&sim_, params_, 7);
  std::vector<std::unique_ptr<IoRequest>> writes;
  disk.set_completion_listener([](IoRequest*) {});
  for (int i = 0; i < 8; ++i) {
    writes.push_back(MakeRead(static_cast<uint64_t>(i + 10), i * (50LL << 30), 64 * 1024));
    writes.back()->op = IoOp::kWrite;
    disk.Submit(writes.back().get());
  }
  auto read = MakeRead(1, 500LL << 30, 4096);
  TimeNs read_done = -1;
  disk.set_completion_listener([&](IoRequest* r) {
    if (r->id == 1) {
      read_done = sim_.Now();
    }
  });
  disk.Submit(read.get());
  sim_.Run();
  // Alone the read would take <12ms; behind 8 destages it must take longer.
  EXPECT_GT(read_done, Millis(12));
}

TEST(DiskProfileTest, LearnsServiceTimesWithinTolerance) {
  sim::Simulator sim;
  DiskParams params;
  DiskModel disk(&sim, params, 11);
  const DiskProfile profile = ProfileDisk(&sim, &disk);
  ASSERT_TRUE(profile.valid());

  // The learned model should predict expected service times within ~15%
  // across distances (rotation averages out over samples).
  sim::Simulator sim2;
  DiskModel reference(&sim2, params, 12);
  for (const int64_t dist_gb : {1, 10, 100, 500, 900}) {
    sched::IoRequest io;
    io.op = IoOp::kRead;
    io.offset = dist_gb << 30;
    io.size = 4096;
    const double predicted = static_cast<double>(profile.PredictServiceTime(0, io));
    const double expected = static_cast<double>(reference.ExpectedServiceTime(0, io));
    EXPECT_NEAR(predicted, expected, 0.15 * expected) << "distance " << dist_gb << " GB";
  }
}

TEST(DiskProfileTest, TransferCostLearned) {
  sim::Simulator sim;
  DiskParams params;
  DiskModel disk(&sim, params, 13);
  const DiskProfile profile = ProfileDisk(&sim, &disk);
  EXPECT_NEAR(static_cast<double>(profile.transfer_per_kb()),
              static_cast<double>(params.transfer_per_kb),
              0.2 * static_cast<double>(params.transfer_per_kb));
}

class SsdModelTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  SsdParams params_;
};

TEST_F(SsdModelTest, UncontendedPageReadTakesAbout100us) {
  SsdModel ssd(&sim_, params_, 1);
  auto req = MakeRead(1, 0, params_.page_size);
  TimeNs done_at = -1;
  ssd.set_completion_listener([&](IoRequest*) { done_at = sim_.Now(); });
  ssd.Submit(req.get());
  sim_.Run();
  EXPECT_NEAR(static_cast<double>(done_at), static_cast<double>(Micros(100)),
              static_cast<double>(Micros(5)));
}

TEST_F(SsdModelTest, PageStripingAcrossChips) {
  SsdModel ssd(&sim_, params_, 2);
  EXPECT_EQ(ssd.num_chips(), 128);
  EXPECT_EQ(ssd.ChipOfPage(0), 0);
  EXPECT_EQ(ssd.ChipOfPage(1), 1);
  EXPECT_EQ(ssd.ChipOfPage(128), 0);
  EXPECT_EQ(ssd.ChannelOfChip(0), 0);
  EXPECT_EQ(ssd.ChannelOfChip(17), 1);
}

TEST_F(SsdModelTest, MultiPageReadChoppedAndParallel) {
  SsdModel ssd(&sim_, params_, 3);
  // 8 pages stripe onto 8 different chips across 8 channels: near-parallel.
  auto req = MakeRead(1, 0, 8 * params_.page_size);
  TimeNs done_at = -1;
  ssd.set_completion_listener([&](IoRequest*) { done_at = sim_.Now(); });
  ssd.Submit(req.get());
  sim_.Run();
  EXPECT_LT(done_at, Micros(200));  // Far less than 8 x 100us serial.
  EXPECT_EQ(ssd.completed_count(), 1u);
}

TEST_F(SsdModelTest, SameChipReadsQueue) {
  SsdModel ssd(&sim_, params_, 4);
  const int64_t stride = ssd.num_chips() * params_.page_size;
  std::vector<std::unique_ptr<IoRequest>> reqs;
  std::vector<TimeNs> done;
  ssd.set_completion_listener([&](IoRequest*) { done.push_back(sim_.Now()); });
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(MakeRead(static_cast<uint64_t>(i), i * stride, params_.page_size));
    ssd.Submit(reqs.back().get());
  }
  sim_.Run();
  ASSERT_EQ(done.size(), 4u);
  // Chip is serial: each read waits ~40us media behind the previous.
  EXPECT_GT(done[3], Micros(190));
}

TEST_F(SsdModelTest, ReadBehindEraseIsDelayed) {
  SsdModel ssd(&sim_, params_, 5);
  auto erase = MakeRead(1, 0, params_.page_size);
  erase->op = IoOp::kErase;
  auto read = MakeRead(2, 0, params_.page_size);  // Same chip 0.
  TimeNs read_done = -1;
  ssd.set_completion_listener([&](IoRequest* r) {
    if (r->id == 2) {
      read_done = sim_.Now();
    }
  });
  ssd.Submit(erase.get());
  ssd.Submit(read.get());
  sim_.Run();
  EXPECT_GT(read_done, params_.erase);  // Stuck behind the 6ms erase.
}

TEST_F(SsdModelTest, SlowPagePatternMatchesPaperPrefix) {
  SsdModel ssd(&sim_, params_, 6);
  // Prose layout: pages #0-6 fast, #7 slow, #8-9 fast, then "1122" repeating.
  const std::string expect_prefix = "11111112111122";
  for (size_t i = 0; i < expect_prefix.size(); ++i) {
    const bool slow = ssd.IsSlowPage(static_cast<int64_t>(i) * ssd.num_chips());
    EXPECT_EQ(slow, expect_prefix[i] == '2') << "page " << i;
  }
  // Tail of the block: "...2112".
  const int ppb = params_.pages_per_block;
  EXPECT_TRUE(ssd.IsSlowPage(static_cast<int64_t>(ppb - 4) * ssd.num_chips()));
  EXPECT_FALSE(ssd.IsSlowPage(static_cast<int64_t>(ppb - 3) * ssd.num_chips()));
  EXPECT_FALSE(ssd.IsSlowPage(static_cast<int64_t>(ppb - 2) * ssd.num_chips()));
  EXPECT_TRUE(ssd.IsSlowPage(static_cast<int64_t>(ppb - 1) * ssd.num_chips()));
}

TEST_F(SsdModelTest, SlowPageWriteTakesLonger) {
  SsdModel ssd(&sim_, params_, 7);
  auto fast = MakeRead(1, 0, params_.page_size);  // Page 0: fast.
  fast->op = IoOp::kWrite;
  TimeNs fast_done = -1;
  ssd.set_completion_listener([&](IoRequest*) { fast_done = sim_.Now(); });
  ssd.Submit(fast.get());
  sim_.Run();

  sim::Simulator sim2;
  SsdModel ssd2(&sim2, params_, 8);
  // Page index 7 within chip 0: logical page 7 * 128.
  auto slow = MakeRead(2, 7LL * 128 * params_.page_size, params_.page_size);
  slow->op = IoOp::kWrite;
  TimeNs slow_done = -1;
  ssd2.set_completion_listener([&](IoRequest*) { slow_done = sim2.Now(); });
  ssd2.Submit(slow.get());
  sim2.Run();

  EXPECT_NEAR(static_cast<double>(slow_done - fast_done),
              static_cast<double>(params_.program_slow - params_.program_fast),
              static_cast<double>(Micros(80)));
}

TEST(SsdProfileTest, LearnsPaperConstants) {
  sim::Simulator sim;
  SsdParams params;
  SsdModel ssd(&sim, params, 21);
  const SsdProfile profile = ProfileSsd(&sim, &ssd);
  ASSERT_TRUE(profile.valid());
  EXPECT_NEAR(static_cast<double>(profile.page_read_total), static_cast<double>(Micros(100)),
              static_cast<double>(Micros(8)));
  EXPECT_NEAR(static_cast<double>(profile.channel_delay), static_cast<double>(Micros(60)),
              static_cast<double>(Micros(10)));
  EXPECT_NEAR(static_cast<double>(profile.erase_time), static_cast<double>(Millis(6)),
              static_cast<double>(Micros(200)));
  // The learned program pattern should classify page 0 fast and page 7 slow.
  EXPECT_LT(profile.ProgramTime(0), Millis(1) + Micros(200));
  EXPECT_GT(profile.ProgramTime(7), Millis(2) - Micros(200));
}

}  // namespace
}  // namespace mitt::device
