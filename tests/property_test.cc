// Property-based tests: parameterized sweeps over seeds and configurations,
// asserting invariants that must hold for *every* instance — conservation
// (every submitted IO completes exactly once), ordering (simulated time never
// goes backwards; FIFO devices preserve order), bounds (cache capacity,
// generator ranges), and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "src/common/latency_recorder.h"
#include "src/common/rng.h"
#include "src/device/disk_model.h"
#include "src/device/disk_profile.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/noise/ec2_noise.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_ssd.h"
#include "src/os/page_cache.h"
#include "src/sched/cfq_scheduler.h"
#include "src/sched/noop_scheduler.h"
#include "src/sim/simulator.h"

namespace mitt {
namespace {

// ---------------------------------------------------------------- Simulator

class SimulatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorProperty, RandomScheduleExecutesInTimeOrderAndCancelsHold) {
  Rng rng(GetParam());
  sim::Simulator sim;
  std::vector<TimeNs> fired;
  std::vector<sim::EventId> ids;
  std::set<sim::EventId> cancelled;

  for (int i = 0; i < 400; ++i) {
    ids.push_back(sim.Schedule(rng.UniformInt(0, Seconds(2)), [&] { fired.push_back(sim.Now()); }));
  }
  for (int i = 0; i < 100; ++i) {
    const auto pick = ids[static_cast<size_t>(rng.UniformInt(0, 399))];
    if (sim.Cancel(pick)) {
      cancelled.insert(pick);
    }
  }
  sim.Run();

  EXPECT_EQ(fired.size(), 400 - cancelled.size());
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);  // Time never goes backwards.
  }
}

TEST_P(SimulatorProperty, DaemonEventsDoNotKeepRunAlive) {
  Rng rng(GetParam());
  sim::Simulator sim;
  int daemon_fired = 0;
  int normal_fired = 0;
  // A self-rescheduling daemon (like the flush timer)...
  std::function<void()> tick = [&] {
    ++daemon_fired;
    sim.ScheduleDaemon(Millis(10), tick);
  };
  sim.ScheduleDaemon(Millis(10), tick);
  // ...plus a bounded set of normal events.
  const int n = static_cast<int>(rng.UniformInt(1, 50));
  for (int i = 0; i < n; ++i) {
    sim.Schedule(rng.UniformInt(0, Millis(500)), [&] { ++normal_fired; });
  }
  sim.Run();  // Must terminate.
  EXPECT_EQ(normal_fired, n);
  EXPECT_LE(sim.Now(), Millis(500) + Millis(10));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty, ::testing::Values(1, 2, 3, 17, 99));

// ---------------------------------------------------------------- DiskModel

// No padding bytes: gtest names each case by the struct's raw bytes
// ("24-byte object <...>"), and padding would make those names differ
// between builds.
struct DiskCase {
  uint64_t seed;
  size_t queue_depth;
  int64_t ios;
};
static_assert(std::has_unique_object_representations_v<DiskCase>);

class DiskProperty : public ::testing::TestWithParam<DiskCase> {};

TEST_P(DiskProperty, EveryIoCompletesExactlyOnce) {
  const DiskCase param = GetParam();
  sim::Simulator sim;
  device::DiskParams dp;
  dp.queue_depth = param.queue_depth;
  device::DiskModel disk(&sim, dp, param.seed);
  sched::NoopScheduler sched(&sim, &disk, nullptr);

  Rng rng(param.seed);
  std::vector<std::unique_ptr<sched::IoRequest>> reqs;
  std::multiset<uint64_t> completed;
  for (int i = 0; i < param.ios; ++i) {
    auto req = std::make_unique<sched::IoRequest>();
    req->id = static_cast<uint64_t>(i);
    req->op = rng.Bernoulli(0.3) ? sched::IoOp::kWrite : sched::IoOp::kRead;
    req->offset = rng.UniformInt(0, dp.capacity_bytes - (1 << 20));
    req->size = rng.Bernoulli(0.5) ? 4096 : (256 << 10);
    req->on_complete = [&completed](const sched::IoRequest& r, Status s) {
      EXPECT_TRUE(s.ok());
      completed.insert(r.id);
    };
    // Stagger arrivals.
    sched::IoRequest* raw = req.get();
    sim.Schedule(rng.UniformInt(0, Millis(200)), [&sched, raw] { sched.Submit(raw); });
    reqs.push_back(std::move(req));
  }
  sim.Run();
  EXPECT_EQ(completed.size(), static_cast<size_t>(param.ios));
  for (int i = 0; i < param.ios; ++i) {
    EXPECT_EQ(completed.count(static_cast<uint64_t>(i)), 1u) << i;
  }
  EXPECT_TRUE(disk.idle());
}

TEST_P(DiskProperty, AgingBoundsStarvation) {
  // Under a continuous stream of near-head IOs, a single far IO must still
  // complete within max_starvation plus a few service times.
  const DiskCase param = GetParam();
  sim::Simulator sim;
  device::DiskParams dp;
  dp.queue_depth = param.queue_depth;
  device::DiskModel disk(&sim, dp, param.seed);
  sched::NoopScheduler sched(&sim, &disk, nullptr);

  Rng rng(param.seed ^ 77);
  std::vector<std::unique_ptr<sched::IoRequest>> stream;
  // Closed near-head stream: always one pending near offset 0.
  std::function<void()> pump = [&] {
    if (sim.Now() > Millis(400)) {
      return;
    }
    auto req = std::make_unique<sched::IoRequest>();
    req->id = 1000 + stream.size();
    req->offset = rng.UniformInt(0, 1 << 30);
    req->size = 4096;
    req->on_complete = [&](const sched::IoRequest&, Status) { pump(); };
    sched.Submit(req.get());
    stream.push_back(std::move(req));
  };
  pump();
  pump();

  auto far = std::make_unique<sched::IoRequest>();
  far->id = 1;
  far->offset = 900LL << 30;
  far->size = 4096;
  TimeNs far_done = -1;
  far->on_complete = [&](const sched::IoRequest&, Status) { far_done = sim.Now(); };
  sim.Schedule(Millis(10), [&] { sched.Submit(far.get()); });

  sim.Run();
  ASSERT_GE(far_done, 0);
  EXPECT_LE(far_done - Millis(10), dp.max_starvation + Millis(40));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiskProperty,
                         ::testing::Values(DiskCase{1, 1, 40}, DiskCase{2, 4, 80},
                                           DiskCase{3, 32, 120}, DiskCase{4, 32, 60},
                                           DiskCase{5, 8, 100}));

// ---------------------------------------------------------------- SsdModel

class SsdProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsdProperty, EveryRequestCompletesOnceAcrossOpMix) {
  sim::Simulator sim;
  device::SsdModel ssd(&sim, device::SsdParams{}, GetParam());
  Rng rng(GetParam() ^ 0x55D);
  std::vector<std::unique_ptr<sched::IoRequest>> reqs;
  std::multiset<uint64_t> completed;
  ssd.set_completion_listener([&](sched::IoRequest* r) { completed.insert(r->id); });
  const int n = 150;
  for (int i = 0; i < n; ++i) {
    auto req = std::make_unique<sched::IoRequest>();
    req->id = static_cast<uint64_t>(i);
    const double pick = rng.NextDouble();
    req->op = pick < 0.6 ? sched::IoOp::kRead
                         : (pick < 0.9 ? sched::IoOp::kWrite : sched::IoOp::kErase);
    req->offset = rng.UniformInt(0, 1000) * ssd.params().page_size;
    req->size = req->op == sched::IoOp::kErase
                    ? ssd.params().page_size
                    : rng.UniformInt(1, 8) * ssd.params().page_size;
    sched::IoRequest* raw = req.get();
    sim.Schedule(rng.UniformInt(0, Millis(50)), [&ssd, raw] { ssd.Submit(raw); });
    reqs.push_back(std::move(req));
  }
  sim.Run();
  EXPECT_EQ(completed.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(completed.count(static_cast<uint64_t>(i)), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsdProperty, ::testing::Values(11, 12, 13, 14));

// ---------------------------------------------------------------- CFQ

class CfqProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CfqProperty, ConservationAcrossClassesAndProcesses) {
  sim::Simulator sim;
  device::DiskParams dp;
  dp.queue_depth = 4;
  device::DiskModel disk(&sim, dp, GetParam());
  sched::CfqScheduler cfq(&sim, &disk, nullptr);
  Rng rng(GetParam() ^ 0xCF0);
  std::vector<std::unique_ptr<sched::IoRequest>> reqs;
  int completed = 0;
  const int n = 120;
  for (int i = 0; i < n; ++i) {
    auto req = std::make_unique<sched::IoRequest>();
    req->id = static_cast<uint64_t>(i);
    req->pid = static_cast<int32_t>(rng.UniformInt(1, 6));
    req->io_class = static_cast<sched::IoClass>(rng.UniformInt(0, 2));
    req->priority = static_cast<int8_t>(rng.UniformInt(0, 7));
    req->offset = rng.UniformInt(0, dp.capacity_bytes - (1 << 20));
    req->size = 4096;
    req->on_complete = [&completed](const sched::IoRequest&, Status s) {
      EXPECT_TRUE(s.ok());
      ++completed;
    };
    sched::IoRequest* raw = req.get();
    sim.Schedule(rng.UniformInt(0, Millis(300)), [&cfq, raw] { cfq.Submit(raw); });
    reqs.push_back(std::move(req));
  }
  sim.Run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(cfq.PendingCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfqProperty, ::testing::Values(21, 22, 23, 24, 25));

// ---------------------------------------------------------------- PageCache

class PageCacheProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCacheProperty, CapacityNeverExceededAndInsertedIsResident) {
  Rng rng(GetParam());
  os::PageCacheParams params;
  params.capacity_pages = static_cast<size_t>(rng.UniformInt(16, 512));
  os::PageCache cache(params);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t file = static_cast<uint64_t>(rng.UniformInt(1, 4));
    const int64_t offset = rng.UniformInt(0, 1 << 24);
    const int64_t len = rng.UniformInt(1, 4 * params.page_size);
    cache.Insert(file, offset, len);
    EXPECT_LE(cache.resident_pages(), params.capacity_pages);
    // The tail of the inserted range must be resident (it is the MRU end;
    // the head may already have been evicted if len ~ capacity).
    const int64_t last_page_off = (offset + len - 1) / params.page_size * params.page_size;
    EXPECT_TRUE(cache.Resident(file, last_page_off, 1));
  }
}

TEST_P(PageCacheProperty, EvictRangeRemovesExactlyThatRange) {
  Rng rng(GetParam() ^ 1);
  os::PageCacheParams params;
  os::PageCache cache(params);
  cache.Insert(1, 0, 64 * params.page_size);
  const int64_t victim_page = rng.UniformInt(8, 32);
  cache.EvictRange(1, victim_page * params.page_size, params.page_size);
  EXPECT_FALSE(cache.Resident(1, victim_page * params.page_size, 1));
  EXPECT_TRUE(cache.Resident(1, (victim_page - 1) * params.page_size, 1));
  EXPECT_TRUE(cache.Resident(1, (victim_page + 1) * params.page_size, 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheProperty, ::testing::Values(31, 32, 33, 34));

// ------------------------------------------------------------- Ec2 noise

class NoiseProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NoiseProperty, EpisodesSortedAndNonOverlapping) {
  noise::Ec2NoiseModel model(noise::Ec2NoiseParams{}, GetParam());
  for (int node = 0; node < 8; ++node) {
    const auto schedule = model.GenerateSchedule(node, Seconds(1200));
    for (size_t i = 1; i < schedule.size(); ++i) {
      EXPECT_GE(schedule[i].start, schedule[i - 1].start + schedule[i - 1].duration);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoiseProperty, ::testing::Values(41, 42, 43));

// -------------------------------------------------- Predictor monotonicity
//
// The fast-reject decision compares a predicted *wait* against the deadline;
// the estimate must grow (or hold) as the queue behind a device deepens, or
// a busier device could look more admissible than an idler one. Verified at
// a fixed instant — submissions only, no completions in between.

class PredictorMonotoneProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredictorMonotoneProperty, CfqWaitNonDecreasingWithQueueDepth) {
  sim::Simulator sim;
  device::DiskParams dp;
  device::DiskModel disk(&sim, dp, GetParam());
  sim::Simulator scratch;
  device::DiskModel twin(&scratch, dp, 99);
  const device::DiskProfile profile = device::ProfileDisk(&scratch, &twin);
  os::MittCfqPredictor predictor(&sim, profile, os::PredictorOptions{}, os::MittCfqOptions{});
  sched::CfqScheduler cfq(&sim, &disk, &predictor);

  Rng rng(GetParam() ^ 0xA11);
  std::vector<std::unique_ptr<sched::IoRequest>> backlog;
  DurationNs prev = predictor.PredictedWaitNow(/*pid=*/1, sched::IoClass::kBestEffort);
  EXPECT_EQ(prev, 0);
  for (int depth = 0; depth < 40; ++depth) {
    auto req = std::make_unique<sched::IoRequest>();
    req->id = static_cast<uint64_t>(depth);
    req->op = sched::IoOp::kRead;
    req->pid = static_cast<int32_t>(2 + rng.UniformInt(0, 3));  // Other tenants.
    req->io_class = rng.Bernoulli(0.3) ? sched::IoClass::kRealTime : sched::IoClass::kBestEffort;
    req->offset = rng.UniformInt(0, dp.capacity_bytes - (1 << 20));
    req->size = 4096;
    req->on_complete = [](const sched::IoRequest&, Status) {};
    cfq.Submit(req.get());
    backlog.push_back(std::move(req));
    const DurationNs wait = predictor.PredictedWaitNow(1, sched::IoClass::kBestEffort);
    EXPECT_GE(wait, prev) << "queue depth " << depth + 1;
    prev = wait;
  }
  EXPECT_GT(prev, 0);
  sim.Run();
}

TEST_P(PredictorMonotoneProperty, SsdWaitNonDecreasingWithChipQueueDepth) {
  sim::Simulator sim;
  device::SsdParams sp;
  device::SsdModel ssd(&sim, sp, GetParam());
  sim::Simulator scratch;
  device::SsdModel twin(&scratch, sp, 99);
  const device::SsdProfile profile = device::ProfileSsd(&scratch, &twin);
  os::MittSsdPredictor predictor(&sim, &ssd, profile, os::PredictorOptions{},
                                 os::MittSsdOptions{});
  os::SsdBlockLayer layer(&sim, &ssd, &predictor);

  sched::IoRequest probe;  // Chip 0, one page: the IO whose wait we watch.
  probe.id = 1000;
  probe.op = sched::IoOp::kRead;
  probe.offset = 0;
  probe.size = sp.page_size;

  Rng rng(GetParam() ^ 0x55D);
  std::vector<std::unique_ptr<sched::IoRequest>> backlog;
  DurationNs prev = predictor.PredictedWait(probe);
  for (int depth = 0; depth < 24; ++depth) {
    auto req = std::make_unique<sched::IoRequest>();
    req->id = static_cast<uint64_t>(depth);
    // Same chip 0, mixed reads and (slower) writes.
    req->op = rng.Bernoulli(0.3) ? sched::IoOp::kWrite : sched::IoOp::kRead;
    req->offset = 0;
    req->size = sp.page_size;
    req->on_complete = [](const sched::IoRequest&, Status) {};
    layer.Submit(req.get());
    backlog.push_back(std::move(req));
    const DurationNs wait = predictor.PredictedWait(probe);
    EXPECT_GE(wait, prev) << "chip queue depth " << depth + 1;
    prev = wait;
  }
  EXPECT_GT(prev, 0);
  sim.Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorMonotoneProperty, ::testing::Values(61, 62, 63, 64, 65));

// ----------------------------------------- Incremental-vs-oracle differential
//
// The predictors answer PredictedWaitNow from running aggregates updated
// incrementally on accept/dispatch/complete/cancel. Drive them with 10k
// random operations while the test recomputes the same quantities from
// scratch out of the surviving pending set, and demand exact agreement.
// (The -DMITT_PREDICT_CHECK=ON build additionally runs the predictors'
// internal lockstep oracles through this same test.)

class CfqDifferentialProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CfqDifferentialProperty, WaitAggregatesMatchRecomputeOracleOver10kOps) {
  sim::Simulator sim;
  device::DiskParams dp;
  sim::Simulator scratch;
  device::DiskModel twin(&scratch, dp, 99);
  const device::DiskProfile profile = device::ProfileDisk(&scratch, &twin);
  os::MittCfqOptions copt;
  // The per-proc SSTF margin is an EWMA of observed waits, not a function of
  // the pending set; disable it so the oracle is exact.
  copt.starvation_margin = false;
  os::MittCfqPredictor pred(&sim, profile, os::PredictorOptions{}, copt);

  Rng rng(GetParam());
  std::vector<std::unique_ptr<sched::IoRequest>> alive;
  std::vector<sched::IoRequest*> pending[3];  // Accepted, not yet dispatched.
  std::vector<sched::IoRequest*> in_device;
  uint64_t next_id = 1;

  auto erase_one = [](std::vector<sched::IoRequest*>& v, sched::IoRequest* r) {
    v.erase(std::remove(v.begin(), v.end(), r), v.end());
  };
  // Recompute-from-scratch: the queue part of a class-c wait estimate is the
  // total predicted processing time over all pending IOs of rank <= c.
  auto oracle_prefix = [&pending](int rank) {
    DurationNs total = 0;
    for (int c = 0; c <= rank; ++c) {
      for (const sched::IoRequest* r : pending[c]) {
        total += r->predicted_process;
      }
    }
    return total;
  };

  for (int op = 0; op < 10'000; ++op) {
    const double pick = rng.NextDouble();
    if (pick < 0.5) {
      // Accept a new IO. Pids recur across ops with varying io_class, so a
      // process' class changes over its lifetime.
      auto req = std::make_unique<sched::IoRequest>();
      req->id = next_id++;
      req->op = rng.Bernoulli(0.25) ? sched::IoOp::kWrite : sched::IoOp::kRead;
      req->pid = static_cast<int32_t>(rng.UniformInt(1, 8));
      req->io_class = static_cast<sched::IoClass>(rng.UniformInt(0, 2));
      req->priority = static_cast<int8_t>(rng.UniformInt(0, 7));
      req->offset = rng.UniformInt(0, dp.capacity_bytes - (1 << 20));
      req->size = rng.Bernoulli(0.5) ? 4096 : (64 << 10);
      req->deadline =
          rng.Bernoulli(0.6) ? sched::kNoDeadline : rng.UniformInt(Millis(2), Millis(40));
      req->submit_time = sim.Now();
      if (pred.ShouldReject(req.get())) {
        continue;  // Rejected before registration: nothing to mirror.
      }
      pending[static_cast<int>(req->io_class)].push_back(req.get());
      // Bump-cancellation: the predictor hands back lower-class IOs whose
      // deadline just became unmeetable; they leave the pending set.
      for (sched::IoRequest* victim : pred.OnAccepted(req.get())) {
        erase_one(pending[static_cast<int>(victim->io_class)], victim);
      }
      alive.push_back(std::move(req));
    } else if (pick < 0.75) {
      // Dispatch a random pending IO (the predictor is agnostic to the
      // scheduler's actual service order).
      const size_t total = pending[0].size() + pending[1].size() + pending[2].size();
      if (total == 0) {
        continue;
      }
      size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(total) - 1));
      int rank = 0;
      while (k >= pending[rank].size()) {
        k -= pending[rank].size();
        ++rank;
      }
      sched::IoRequest* r = pending[rank][k];
      pred.OnDispatch(r);
      pending[rank].erase(pending[rank].begin() + static_cast<int64_t>(k));
      in_device.push_back(r);
    } else if (pick < 0.95) {
      if (in_device.empty()) {
        continue;
      }
      const size_t k =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(in_device.size()) - 1));
      sched::IoRequest* r = in_device[k];
      pred.OnCompletion(*r, rng.UniformInt(Millis(1), Millis(20)));
      in_device.erase(in_device.begin() + static_cast<int64_t>(k));
    } else {
      // Let simulated time pass.
      sim.Schedule(rng.UniformInt(0, Millis(20)), [] {});
      sim.Run();
    }

    // Every op: class-to-class differences are pure prefix-sum deltas (the
    // device-queue part and any margin cancel out).
    const DurationNs w0 = pred.PredictedWaitNow(1, sched::IoClass::kRealTime);
    const DurationNs w1 = pred.PredictedWaitNow(1, sched::IoClass::kBestEffort);
    const DurationNs w2 = pred.PredictedWaitNow(1, sched::IoClass::kIdle);
    ASSERT_EQ(w1 - w0, oracle_prefix(1) - oracle_prefix(0)) << "op " << op;
    ASSERT_EQ(w2 - w0, oracle_prefix(2) - oracle_prefix(0)) << "op " << op;
    if (op % 64 == 63) {
      // Drain the device-queue part (next-free lies at most tens of ms
      // ahead) and compare absolute values.
      sim.Schedule(Seconds(60), [] {});
      sim.Run();
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(pred.PredictedWaitNow(1, static_cast<sched::IoClass>(c)), oracle_prefix(c))
            << "op " << op << " class " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfqDifferentialProperty, ::testing::Values(71, 72, 73));

class SsdDifferentialProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsdDifferentialProperty, AccountingUnwindsExactlyToFreshState) {
  // Per-chip next-free times decay via max(0, t - now) and per-channel
  // outstanding counts are decremented from the request's own geometry on
  // completion. After every accepted IO completes and the next-free horizon
  // passes, the predictor must be indistinguishable from a freshly
  // constructed one on *every* probe — any leak or double-decrement in the
  // incremental accounting shows up as a disagreement.
  sim::Simulator sim;
  device::SsdParams sp;
  device::SsdModel ssd(&sim, sp, GetParam());
  sim::Simulator scratch;
  device::SsdModel twin(&scratch, sp, 99);
  const device::SsdProfile profile = device::ProfileSsd(&scratch, &twin);
  os::MittSsdPredictor pred(&sim, &ssd, profile, os::PredictorOptions{}, os::MittSsdOptions{});

  Rng rng(GetParam() ^ 0xD1F);
  std::vector<std::unique_ptr<sched::IoRequest>> alive;
  std::vector<sched::IoRequest*> outstanding;
  for (int round = 0; round < 2000; ++round) {
    if (outstanding.empty() || rng.Bernoulli(0.55)) {
      auto req = std::make_unique<sched::IoRequest>();
      req->id = static_cast<uint64_t>(round + 1);
      req->op = rng.Bernoulli(0.3) ? sched::IoOp::kWrite : sched::IoOp::kRead;
      req->offset = rng.UniformInt(0, 4000) * sp.page_size;
      req->size = rng.UniformInt(1, 8) * sp.page_size;
      req->pid = 1;
      req->deadline =
          rng.Bernoulli(0.5) ? sched::kNoDeadline : rng.UniformInt(Micros(200), Millis(20));
      if (!pred.ShouldReject(req.get())) {
        pred.OnAccepted(req.get());
        outstanding.push_back(req.get());
        alive.push_back(std::move(req));
      }
    } else {
      const size_t k =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(outstanding.size()) - 1));
      pred.OnCompletion(outstanding[k]);
      outstanding.erase(outstanding.begin() + static_cast<int64_t>(k));
    }
    if (round % 50 == 49) {
      sim.Schedule(rng.UniformInt(0, Millis(2)), [] {});
      sim.Run();
    }
  }
  for (sched::IoRequest* r : outstanding) {
    pred.OnCompletion(r);
  }
  sim.Schedule(Seconds(120), [] {});  // Outrun every chip's next-free time.
  sim.Run();

  os::MittSsdPredictor fresh(&sim, &ssd, profile, os::PredictorOptions{}, os::MittSsdOptions{});
  for (int i = 0; i < 200; ++i) {
    sched::IoRequest probe;
    probe.id = 1'000'000 + static_cast<uint64_t>(i);
    probe.op = rng.Bernoulli(0.5) ? sched::IoOp::kWrite : sched::IoOp::kRead;
    probe.offset = rng.UniformInt(0, 8000) * sp.page_size;
    probe.size = rng.UniformInt(1, 8) * sp.page_size;
    ASSERT_EQ(pred.PredictedWait(probe), fresh.PredictedWait(probe)) << "probe " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsdDifferentialProperty, ::testing::Values(81, 82, 83));

// ------------------------------------------------------------- Statistics

class RecorderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecorderProperty, PercentilesMonotoneAndBounded) {
  Rng rng(GetParam());
  LatencyRecorder rec;
  const int n = static_cast<int>(rng.UniformInt(1, 3000));
  for (int i = 0; i < n; ++i) {
    rec.Record(rng.UniformInt(0, Seconds(1)));
  }
  DurationNs prev = rec.Min();
  for (double p = 0; p <= 100; p += 2.5) {
    const DurationNs v = rec.Percentile(p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, rec.Min());
    EXPECT_LE(v, rec.Max());
    prev = v;
  }
  EXPECT_EQ(rec.Percentile(100), rec.Max());
}

TEST_P(RecorderProperty, FractionBelowIsAProperCdf) {
  Rng rng(GetParam() ^ 9);
  LatencyRecorder rec;
  for (int i = 0; i < 500; ++i) {
    rec.Record(rng.UniformInt(0, Millis(100)));
  }
  double prev = 0;
  for (DurationNs t = 0; t <= Millis(100); t += Millis(5)) {
    const double f = rec.FractionBelow(t);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(rec.FractionBelow(Millis(100)), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecorderProperty, ::testing::Values(51, 52, 53, 54));

// ------------------------------------------------------------- Zipfian

struct ZipfCase {
  uint64_t n;
  double theta;
};

class ZipfProperty : public ::testing::TestWithParam<ZipfCase> {};

TEST_P(ZipfProperty, AlwaysInRange) {
  Rng rng(7);
  ZipfianGenerator zipf(GetParam().n, GetParam().theta);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Next(rng), GetParam().n);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ZipfProperty,
                         ::testing::Values(ZipfCase{10, 0.99}, ZipfCase{1000, 0.99},
                                           ZipfCase{1000, 0.5}, ZipfCase{100000, 0.99}));

}  // namespace
}  // namespace mitt
