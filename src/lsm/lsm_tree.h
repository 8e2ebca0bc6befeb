// LevelDB-style LSM tree on top of one MittOS instance (§5's second
// application).
//
// Writes: WAL append (sync, absorbed by the drive's NVRAM) + memtable
// insert; a full memtable flushes to a new L0 SSTable with buffered writes.
// Reads: memtable, then L0 tables newest-first, then L1. The Bloom filter and
// the block index find the one table that holds the key without IO; its
// data-block read goes through read(..., deadline), and an EBUSY ends the
// lookup so the caller (Riak) can fail over to another replica.
// Compaction: when L0 grows past a threshold, L0 and overlapping L1 tables
// merge into new L1 tables; compaction IO runs at Idle class with no
// deadline, providing the paper's background-maintenance contention. The
// merged input tables' files are deleted when it finishes.

#ifndef MITTOS_LSM_LSM_TREE_H_
#define MITTOS_LSM_LSM_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/sched/io_request.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmTree {
 public:
  struct Options {
    int64_t memtable_flush_bytes = 4 << 20;
    int l0_compaction_trigger = 4;
  };

  LsmTree(sim::Simulator* sim, os::Os* node_os, const Options& options);

  // Insert/update. `done` (may be null) fires after the WAL write and
  // memtable insert, with wait hint 0.
  void Put(uint64_t key, sched::IoDoneFn done);

  // Point lookup with an SLO. Calls `done` with:
  //   kOk        — found;
  //   kNotFound  — key in no layer;
  //   kEbusy     — MittOS rejected the data-block read.
  // A memtable hit and a key in no table answer synchronously, with hint 0;
  // otherwise `done` is the block read's own callback, hint included.
  // `trace` rides on the block read, so its syscall and EBUSY spans carry the
  // originating get's request id (src/obs/; default: untraced).
  void Get(uint64_t key, DurationNs deadline, sched::IoDoneFn done,
           obs::TraceContext trace = {});

  // Bulk-loads sorted keys directly into L1 tables (dataset setup), bypassing
  // the write path; optionally pre-warms nothing (reads hit the device).
  void BulkLoad(const std::vector<uint64_t>& sorted_keys);

  size_t level_size(int level) const;
  size_t memtable_entries() const { return memtable_.entry_count(); }
  uint64_t compactions_done() const { return compactions_done_; }
  uint64_t flushes_done() const { return flushes_done_; }
  bool compaction_running() const { return compaction_running_; }

 private:
  void MaybeFlushMemtable();
  void MaybeStartCompaction();
  // Issues the compaction's next IO; its completion comes back here.
  void CompactionStep();
  void FinishCompaction();
  std::unique_ptr<SsTable> BuildTable(std::vector<uint64_t> sorted_keys, int level);

  sim::Simulator* sim_;
  os::Os* os_;
  Options options_;

  MemTable memtable_;
  uint64_t wal_file_ = 0;
  int64_t wal_offset_ = 0;
  uint64_t next_table_id_ = 1;

  // levels_[0] is L0 (newest first); levels_[1] is L1 (sorted, disjoint).
  std::vector<std::vector<std::unique_ptr<SsTable>>> levels_;
  bool compaction_running_ = false;
  uint64_t compactions_done_ = 0;
  uint64_t flushes_done_ = 0;

  // The running compaction (at most one): its chained IOs, the next one to
  // issue, its output tables and how many of the oldest L0 tables it
  // merges. Flushes keep adding newer L0 tables while it runs.
  struct CompactionIo {
    uint64_t file;
    int64_t offset;
    int64_t size;
    bool write;
  };
  std::vector<CompactionIo> compaction_ios_;
  size_t compaction_next_ = 0;
  std::vector<std::unique_ptr<SsTable>> compaction_out_;
  size_t compaction_l0_inputs_ = 0;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_TREE_H_
