#include "src/lsm/lsm_tree.h"

#include <algorithm>
#include <utility>

namespace mitt::lsm {
namespace {

constexpr uint32_t kValueSize = 1024;
constexpr int32_t kServerPid = 1;
constexpr int32_t kCompactionPid = kServerPid + 1000;  // The compaction thread.
constexpr bool kWalSync = true;

}  // namespace

LsmTree::LsmTree(sim::Simulator* sim, os::Os* node_os, const Options& options)
    : sim_(sim), os_(node_os), options_(options) {
  levels_.resize(2);
  wal_file_ = os_->CreateFile(64 << 20);
}

std::unique_ptr<SsTable> LsmTree::BuildTable(std::vector<uint64_t> sorted_keys, int level) {
  const auto blocks = (static_cast<int64_t>(sorted_keys.size()) + kKeysPerBlock - 1) /
                      kKeysPerBlock;
  const uint64_t file = os_->CreateFile(std::max<int64_t>(1, blocks) * kBlockSize);
  return std::make_unique<SsTable>(next_table_id_++, file, std::move(sorted_keys), level);
}

void LsmTree::Put(uint64_t key, sched::IoDoneFn done) {
  os::Os::WriteArgs wal;
  wal.file = wal_file_;
  wal.offset = wal_offset_;
  wal.size = static_cast<int64_t>(sizeof(uint64_t)) + kValueSize;
  wal.pid = kServerPid;
  wal.sync = kWalSync;
  wal_offset_ = (wal_offset_ + wal.size) % (48 << 20);  // Circular log region.
  os_->Write(wal, [this, key, done = std::move(done)](Status s, DurationNs) mutable {
    memtable_.Put(key, kValueSize);
    MaybeFlushMemtable();
    if (done) {
      done(s, 0);
    }
  });
}

void LsmTree::MaybeFlushMemtable() {
  if (memtable_.approximate_bytes() < options_.memtable_flush_bytes) {
    return;
  }
  auto table = BuildTable(memtable_.SortedKeys(), /*level=*/0);
  memtable_.Clear();
  ++flushes_done_;
  // Write the table contents as buffered (background-flushed) IO.
  os::Os::WriteArgs w;
  w.file = table->file();
  w.offset = 0;
  w.size = table->size_bytes();
  w.pid = kServerPid;
  w.sync = false;
  os_->Write(w, nullptr);
  levels_[0].insert(levels_[0].begin(), std::move(table));  // Newest first.
  MaybeStartCompaction();
}

void LsmTree::MaybeStartCompaction() {
  if (compaction_running_ ||
      levels_[0].size() < static_cast<size_t>(options_.l0_compaction_trigger)) {
    return;
  }
  compaction_running_ = true;
  compaction_l0_inputs_ = levels_[0].size();

  // Merge every L0 table with all of L1 (single-shard simplification of
  // LevelDB's range-overlap selection; our tables span wide key ranges, so
  // overlap is near-total anyway): every input key in one vector, sorted and
  // deduplicated.
  std::vector<uint64_t> all;
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      all.insert(all.end(), table->keys().begin(), table->keys().end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  // Split into ~8MB output tables.
  const auto keys_per_out = static_cast<size_t>(
      (8LL << 20) / kBlockSize * static_cast<int64_t>(kKeysPerBlock));
  compaction_out_.clear();
  for (size_t i = 0; i < all.size(); i += keys_per_out) {
    const size_t end = std::min(all.size(), i + keys_per_out);
    compaction_out_.push_back(
        BuildTable(std::vector<uint64_t>(all.begin() + static_cast<int64_t>(i),
                                         all.begin() + static_cast<int64_t>(end)),
                   /*level=*/1));
  }

  // Compaction IO: read all inputs, write all outputs, chained at Idle class
  // so foreground reads keep CFQ priority — yet the device still sees the
  // load (the §3.3 "maintenance jobs" noise source).
  compaction_ios_.clear();
  compaction_next_ = 0;
  constexpr int64_t kChunk = 256 << 10;
  auto add_chunks = [&](const SsTable& table, bool write) {
    for (int64_t off = 0; off < table.size_bytes(); off += kChunk) {
      compaction_ios_.push_back(
          {table.file(), off, std::min(kChunk, table.size_bytes() - off), write});
    }
  };
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      add_chunks(*table, /*write=*/false);
    }
  }
  for (const auto& table : compaction_out_) {
    add_chunks(*table, /*write=*/true);
  }
  CompactionStep();
}

void LsmTree::CompactionStep() {
  if (compaction_next_ >= compaction_ios_.size()) {
    FinishCompaction();
    return;
  }
  const CompactionIo& io = compaction_ios_[compaction_next_++];
  auto next = [this](Status, DurationNs) { CompactionStep(); };
  if (io.write) {
    os::Os::WriteArgs w;
    w.file = io.file;
    w.offset = io.offset;
    w.size = io.size;
    w.pid = kCompactionPid;
    w.io_class = sched::IoClass::kIdle;
    w.priority = 7;
    w.sync = true;
    os_->Write(w, next);
  } else {
    os::Os::ReadArgs r;
    r.file = io.file;
    r.offset = io.offset;
    r.size = io.size;
    r.pid = kCompactionPid;
    r.io_class = sched::IoClass::kIdle;
    r.priority = 7;
    r.bypass_cache = true;
    os_->ReadWithWaitHint(r, next);
  }
}

void LsmTree::FinishCompaction() {
  // The merged inputs are the oldest L0 tables and all of L1; those flushed
  // while the compaction ran stay in L0, in front of them. The inputs' files
  // are deleted, so later tables reuse their space.
  const size_t l0_kept = levels_[0].size() - compaction_l0_inputs_;
  for (size_t i = l0_kept; i < levels_[0].size(); ++i) {
    os_->DeleteFile(levels_[0][i]->file());
  }
  for (const auto& table : levels_[1]) {
    os_->DeleteFile(table->file());
  }
  levels_[0].resize(l0_kept);
  levels_[1] = std::move(compaction_out_);
  compaction_running_ = false;
  ++compactions_done_;
  MaybeStartCompaction();
}

void LsmTree::BulkLoad(const std::vector<uint64_t>& sorted_keys) {
  const auto keys_per_out = static_cast<size_t>(
      (8LL << 20) / kBlockSize * static_cast<int64_t>(kKeysPerBlock));
  for (size_t i = 0; i < sorted_keys.size(); i += keys_per_out) {
    const size_t end = std::min(sorted_keys.size(), i + keys_per_out);
    levels_[1].push_back(
        BuildTable(std::vector<uint64_t>(sorted_keys.begin() + static_cast<int64_t>(i),
                                         sorted_keys.begin() + static_cast<int64_t>(end)),
                   /*level=*/1));
  }
}

size_t LsmTree::level_size(int level) const {
  return levels_[static_cast<size_t>(level)].size();
}

void LsmTree::Get(uint64_t key, DurationNs deadline, sched::IoDoneFn done,
                  obs::TraceContext trace) {
  if (memtable_.Contains(key)) {
    done(Status::Ok(), 0);  // Served from memory; cost is negligible vs the net.
    return;
  }
  // No IO separates two tables, so compaction cannot swap the levels under
  // the scan. A Bloom false positive fails the index lookup and moves on.
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      int64_t block_offset = 0;
      if (!table->MayContain(key) || !table->Lookup(key, &block_offset)) {
        continue;
      }
      // The block read succeeds (key found) or MittOS rejects it; both end
      // the lookup (an EBUSY must propagate to the replication layer, §5:
      // "the returned EBUSY is propagated to Riak where the read failover
      // takes place").
      os::Os::ReadArgs r;
      r.file = table->file();
      r.offset = block_offset;
      r.size = kBlockSize;
      r.deadline = deadline;
      r.pid = kServerPid;
      r.trace = trace;
      os_->ReadWithWaitHint(r, std::move(done));
      return;
    }
  }
  done(Status::NotFound(), 0);
}

}  // namespace mitt::lsm
