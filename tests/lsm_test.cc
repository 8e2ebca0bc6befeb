#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "src/client/mittos_client.h"
#include "src/cluster/cluster.h"
#include "src/lsm/bloom.h"
#include "src/lsm/lsm_node.h"
#include "src/lsm/lsm_tree.h"
#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/noise/noise_injector.h"
#include "src/obs/gate.h"
#include "src/obs/trace.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    bloom.Add(k * 7919);
  }
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(bloom.MayContain(k * 7919));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    bloom.Add(k * 7919);
  }
  int fp = 0;
  const int probes = 10000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (bloom.MayContain(k * 7919 + 3)) {
      ++fp;
    }
  }
  EXPECT_LT(fp, probes / 50);  // Under 2%.
}

TEST(MemTableTest, PutContainsClear) {
  MemTable mem;
  EXPECT_TRUE(mem.empty());
  mem.Put(1, 1024);
  mem.Put(2, 1024);
  mem.Put(1, 1024);  // Update, not new entry.
  EXPECT_EQ(mem.entry_count(), 2u);
  EXPECT_TRUE(mem.Contains(1));
  EXPECT_FALSE(mem.Contains(3));
  EXPECT_EQ(mem.approximate_bytes(), 2 * (1024 + 8));
  const auto keys = mem.SortedKeys();
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 2}));
  mem.Clear();
  EXPECT_TRUE(mem.empty());
}

TEST(SsTableTest, LookupFindsBlocks) {
  std::vector<uint64_t> keys(100);
  std::iota(keys.begin(), keys.end(), 1000);
  SsTable table(1, 7, keys, /*level=*/1);
  EXPECT_EQ(table.min_key(), 1000u);
  EXPECT_EQ(table.max_key(), 1099u);
  EXPECT_EQ(table.size_bytes(), 25 * 4096);
  int64_t offset = -1;
  ASSERT_TRUE(table.Lookup(1000, &offset));
  EXPECT_EQ(offset, 0);
  ASSERT_TRUE(table.Lookup(1007, &offset));
  EXPECT_EQ(offset, 4096);  // Rank 7 -> block 1.
  EXPECT_FALSE(table.Lookup(999, &offset));
  EXPECT_FALSE(table.Lookup(5000, &offset));
}

TEST(SsTableTest, MayContainRangeAndBloom) {
  std::vector<uint64_t> keys = {10, 20, 30};
  SsTable table(1, 7, keys, 0);
  EXPECT_TRUE(table.MayContain(20));
  EXPECT_FALSE(table.MayContain(5));
  EXPECT_FALSE(table.MayContain(35));
}

class LsmTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::OsOptions opt;
    opt.backend = os::BackendKind::kDiskCfq;
    opt.mitt_enabled = false;
    os_ = std::make_unique<os::Os>(&sim_, opt);
  }

  sim::Simulator sim_;
  std::unique_ptr<os::Os> os_;
};

TEST_F(LsmTreeTest, PutsFlushToL0) {
  LsmTree::Options opt;
  opt.memtable_flush_bytes = 64 << 10;  // Tiny, to force flushes.
  LsmTree tree(&sim_, os_.get(), opt);
  int acked = 0;
  for (uint64_t k = 0; k < 200; ++k) {
    tree.Put(k, [&](Status s, DurationNs) {
      EXPECT_TRUE(s.ok());
      ++acked;
    });
  }
  sim_.Run();
  EXPECT_EQ(acked, 200);
  EXPECT_GT(tree.flushes_done(), 0u);
  EXPECT_GT(tree.level_size(0) + tree.level_size(1), 0u);
}

TEST_F(LsmTreeTest, CompactionMergesL0IntoL1) {
  LsmTree::Options opt;
  opt.memtable_flush_bytes = 32 << 10;
  opt.l0_compaction_trigger = 3;
  LsmTree tree(&sim_, os_.get(), opt);
  for (uint64_t k = 0; k < 500; ++k) {
    tree.Put(k * 13, nullptr);
  }
  sim_.Run();
  EXPECT_GT(tree.compactions_done(), 0u);
  EXPECT_LT(tree.level_size(0), 3u);
  EXPECT_GT(tree.level_size(1), 0u);
  // Flushes land while a compaction's IO runs; the compaction drops only the
  // L0 tables it merged, so every key stays readable.
  int found = 0;
  for (uint64_t k = 0; k < 500; ++k) {
    tree.Get(k * 13, sched::kNoDeadline, [&](Status s, DurationNs) { found += s.ok() ? 1 : 0; });
  }
  sim_.Run();
  EXPECT_EQ(found, 500);
}

// A finished compaction deletes its input tables: their pages leave the page
// cache, and a file created afterwards takes a freed region instead of fresh
// space past every region ever allocated.
TEST_F(LsmTreeTest, CompactionFreesInputTablesForReuse) {
  LsmTree::Options opt;
  opt.memtable_flush_bytes = 32 << 10;
  opt.l0_compaction_trigger = 3;
  LsmTree tree(&sim_, os_.get(), opt);
  std::vector<uint64_t> keys(4096);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  // File ids run from 1 in creation order: the WAL, then the one L1 table.
  const uint64_t bulk_table = 2;
  os_->Prefault(bulk_table, 0, 64 << 10);
  ASSERT_TRUE(os_->cache().Resident(bulk_table, 0, 64 << 10));

  for (uint64_t k = 0; k < 500; ++k) {
    tree.Put(k * 13, nullptr);
  }
  sim_.Run();
  ASSERT_GE(tree.compactions_done(), 2u);
  EXPECT_FALSE(os_->cache().Resident(bulk_table, 0, 4096));

  const uint64_t next = os_->CreateFile(4096);
  int64_t highest = 0;
  for (uint64_t f = 1; f < next; ++f) {
    highest = std::max(highest, os_->FileBase(f));
  }
  EXPECT_LT(os_->FileBase(next), highest);
}

TEST_F(LsmTreeTest, GetFromMemtableIsInstant) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  tree.Put(42, nullptr);
  sim_.Run();
  Status status = Status::Internal();
  tree.Get(42, sched::kNoDeadline, [&](Status s, DurationNs) { status = s; });
  EXPECT_TRUE(status.ok());  // Synchronous memtable hit.
}

TEST_F(LsmTreeTest, GetFromSstableCostsOneRead) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(5000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  Status status = Status::Internal();
  TimeNs done = -1;
  tree.Get(777, sched::kNoDeadline, [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_GT(done, kMillisecond);  // One disk block read.
  EXPECT_LT(done, Millis(15));
}

TEST_F(LsmTreeTest, MissingKeyNotFoundWithoutIo) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  Status status = Status::Internal();
  tree.Get(999999, sched::kNoDeadline, [&](Status s, DurationNs) { status = s; });
  // Range check rejects instantly; no IO, synchronous NotFound.
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(LsmTreeTest, EbusyPropagatesFromReadPath) {
  // Rebuild the OS with MittOS enabled.
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = true;
  os_ = std::make_unique<os::Os>(&sim_, opt);
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(5000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  // Saturate the disk.
  const uint64_t noise_file = os_->CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    os_->ReadWithWaitHint(args, nullptr);
  }
  Status status = Status::Internal();
  TimeNs done = -1;
  tree.Get(777, Millis(10), [&](Status s, DurationNs) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.busy());
  EXPECT_LT(done, kMillisecond);  // Fast rejection, no queueing.
}

// A cluster of LSM nodes under the MittOS client: the same EBUSY failover
// walk the DocStore cluster runs.
class RingTest : public ::testing::Test {
 protected:
  void Build() {
    cluster::Cluster::Options copt;
    copt.num_nodes = 3;
    copt.node.access = kv::AccessPath::kLsm;
    copt.node.num_keys = 20000;
    copt.node.os.backend = os::BackendKind::kDiskCfq;
    copt.node.os.mitt_enabled = true;
    ring_ = std::make_unique<cluster::Cluster>(&engine_, copt);
    client::MittosStrategy::Options mopt;
    mopt.deadline = Millis(12);
    mittos_ = std::make_unique<client::MittosStrategy>(&sim_, ring_.get(), 1, mopt);
  }

  LsmNode& node(int i) { return static_cast<LsmNode&>(ring_->node(i)); }

  sim::ShardedEngine engine_{{}};
  sim::Simulator& sim_ = *engine_.shard(0);
  std::unique_ptr<cluster::Cluster> ring_;
  std::unique_ptr<client::MittosStrategy> mittos_;
};

TEST_F(RingTest, GetSucceedsQuietCluster) {
  Build();
  Status status = Status::Internal();
  TimeNs done = -1;
  mittos_->Get(123, {}, [&](const client::GetResult& r) {
    status = r.status;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(mittos_->ebusy_failovers(), 0u);
}

// The get is traced: the primary's rejected block read records its syscall
// and EBUSY spans under the get's request id and the primary's node label.
TEST_F(RingTest, EbusyTriggersReplicaFailover) {
  Build();
  obs::Tracer tracer;
  sim_.set_tracer(&tracer);
  // Saturate the primary replica of key 123.
  const int primary = ring_->ReplicasOf(123)[0];
  os::Os& primary_os = ring_->node(primary).os();
  const uint64_t noise_file = primary_os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    primary_os.ReadWithWaitHint(args, nullptr);
  }
  Status status = Status::Internal();
  TimeNs done = -1;
  const TimeNs start = sim_.Now();
  mittos_->Get(123, {}, [&](const client::GetResult& r) {
    status = r.status;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_GE(mittos_->ebusy_failovers(), 1u);
  EXPECT_LT(done - start, Millis(15));  // No waiting on the busy primary.
#if MITT_OBS_ENABLED
  int syscalls = 0;
  int rejects = 0;
  for (const obs::SpanRecord& span : tracer.OrderedSpans()) {
    if (span.request_id != 1 || span.node != primary) {
      continue;
    }
    syscalls += span.kind == obs::SpanKind::kSyscall ? 1 : 0;
    rejects += span.kind == obs::SpanKind::kEbusyReject ? 1 : 0;
  }
  EXPECT_EQ(syscalls, 1);
  EXPECT_EQ(rejects, 1);
#endif
}

TEST_F(RingTest, PutReplicatesAndAcks) {
  Build();
  Status status = Status::Internal();
  TimeNs done = -1;
  ring_->Put(55, [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_LT(done, Millis(2));  // WAL hits NVRAM; buffered ack.
  sim_.Run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(node(i).lsm().memtable_entries(), 0u);
  }
}

}  // namespace
}  // namespace mitt::lsm
