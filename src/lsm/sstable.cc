#include "src/lsm/sstable.h"

#include <algorithm>

namespace mitt::lsm {

SsTable::SsTable(uint64_t table_id, uint64_t file, std::vector<uint64_t> sorted_keys, int level)
    : table_id_(table_id),
      file_(file),
      keys_(std::move(sorted_keys)),
      level_(level),
      bloom_(keys_.size()) {
  for (const uint64_t key : keys_) {
    bloom_.Add(key);
  }
}

int64_t SsTable::size_bytes() const {
  const auto blocks = (static_cast<int64_t>(keys_.size()) + kKeysPerBlock - 1) / kKeysPerBlock;
  return blocks * kBlockSize;
}

bool SsTable::MayContain(uint64_t key) const {
  if (keys_.empty() || key < keys_.front() || key > keys_.back()) {
    return false;
  }
  return bloom_.MayContain(key);
}

bool SsTable::Lookup(uint64_t key, int64_t* block_offset) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) {
    return false;
  }
  const auto rank = static_cast<int64_t>(it - keys_.begin());
  *block_offset = rank / kKeysPerBlock * kBlockSize;
  return true;
}

}  // namespace mitt::lsm
