// Immutable sorted table (LevelDB SSTable), stored as one file on the node's
// OS. The in-memory side carries the sorted key list, a Bloom filter, and the
// block index; reading a key costs one data-block IO through the SLO-aware
// read path — which is exactly where MittOS' EBUSY surfaces inside LevelDB
// (§5, §7.8.4).

#ifndef MITTOS_LSM_SSTABLE_H_
#define MITTOS_LSM_SSTABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/lsm/bloom.h"

namespace mitt::lsm {

// Table geometry: every data block is kBlockSize bytes and holds
// kKeysPerBlock keys, so one Get reads one block.
inline constexpr int64_t kBlockSize = 4096;
inline constexpr int kKeysPerBlock = 4;

class SsTable {
 public:
  // `file` must already be created on the node's OS with space for
  // keys.size() entries. Keys must be sorted.
  SsTable(uint64_t table_id, uint64_t file, std::vector<uint64_t> sorted_keys, int level);

  uint64_t table_id() const { return table_id_; }
  uint64_t file() const { return file_; }
  int level() const { return level_; }
  size_t entry_count() const { return keys_.size(); }
  uint64_t min_key() const { return keys_.front(); }
  uint64_t max_key() const { return keys_.back(); }
  int64_t size_bytes() const;
  const std::vector<uint64_t>& keys() const { return keys_; }

  // True if `key` is within [min, max] and passes the Bloom filter.
  bool MayContain(uint64_t key) const;

  // Exact membership plus the data-block offset a read must fetch.
  // Returns false if the key is not in the table (index lookup, no IO).
  bool Lookup(uint64_t key, int64_t* block_offset) const;

 private:
  uint64_t table_id_;
  uint64_t file_;
  std::vector<uint64_t> keys_;
  int level_;
  BloomFilter bloom_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_SSTABLE_H_
