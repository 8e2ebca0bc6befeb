// TraceCursor: the one replay interface for every trace source.
//
// A cursor yields TraceEvents in non-decreasing arrival order, one at a
// time, in constant memory regardless of trace size. The on-disk columnar
// format (FileTraceCursor, here), the synthetic paper-trace generators
// (workload::SyntheticTraceCursor) and the multi-tenant mix
// (tenant::TenantArrivalCursor) implement it, so TraceReplayDriver is the
// one open-loop driver, and the accuracy benches and bench_replay share one
// code path for real and synthetic workloads. Next() is the whole
// interface: a cursor runs forward once.
//
// Steady-state contract: after the first block is decoded, Next() performs
// zero heap allocations (gated by tests/alloc_test.cc) — a cursor can sit
// inside the replay hot loop of a 100M-IO run.

#ifndef MITTOS_TRACE_CURSOR_H_
#define MITTOS_TRACE_CURSOR_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/format.h"

namespace mitt::trace {

class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  // Fills *out with the next event; returns false at end of trace.
  virtual bool Next(TraceEvent* out) = 0;
};

// Streaming reader for the on-disk format. Holds exactly one decoded block
// (~block_records x 50 B of scratch: the 25 B/record packed bytes plus the
// decoded columns) no matter how large the file is; the
// on-disk index is consulted by SeekToTimeUs via per-probe reads and never
// loaded wholesale.
//
// IO path: fseek+fread, one block (or one 16-byte index entry) per read,
// into the cursor's own scratch buffer.
class FileTraceCursor : public TraceCursor {
 public:
  // Opens and fully validates `path` (magic, version, checksums, count
  // agreement, exact file size). Returns nullptr and sets *error on any
  // structural problem — a truncated or torn file never yields records.
  static std::unique_ptr<FileTraceCursor> Open(const std::string& path, std::string* error);

  ~FileTraceCursor() override;

  FileTraceCursor(const FileTraceCursor&) = delete;
  FileTraceCursor& operator=(const FileTraceCursor&) = delete;

  bool Next(TraceEvent* out) override;

  // Positions the cursor at the first event with arrival >= `us`, by binary
  // search over the on-disk block index (O(log blocks) 16-byte reads) plus
  // one in-block scan. Returns false (cursor at end) if every event is
  // earlier. SeekToTimeUs(0) rewinds to the first event.
  bool SeekToTimeUs(uint64_t us);

  const TraceHeader& header() const { return header_; }
  // Records already yielded by Next() since the open or the last seek
  // (replay progress reporting).
  uint64_t position() const { return yielded_; }

 private:
  FileTraceCursor(std::FILE* file, const TraceHeader& header);

  bool LoadBlock(uint64_t block);
  bool ReadIndexEntry(uint64_t block, BlockIndexEntry* out);

  std::FILE* file_ = nullptr;
  TraceHeader header_;

  // Decoded current block (struct-of-arrays, capacity = block_records).
  std::vector<unsigned char> raw_;
  std::vector<uint64_t> arrival_us_;
  std::vector<int64_t> offset_;
  std::vector<uint32_t> len_;
  std::vector<uint8_t> op_;
  std::vector<uint32_t> stream_;

  uint64_t next_block_ = 0;  // Block to decode when the current one drains.
  uint32_t block_n_ = 0;     // Records in the decoded block.
  uint32_t pos_ = 0;         // Next record within the block.
  bool exhausted_ = false;
  uint64_t yielded_ = 0;
};

}  // namespace mitt::trace

#endif  // MITTOS_TRACE_CURSOR_H_
