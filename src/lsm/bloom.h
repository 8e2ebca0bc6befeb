// Small Bloom filter over 64-bit keys, as used by LevelDB-style SSTables to
// skip tables that cannot contain a key.

#ifndef MITTOS_LSM_BLOOM_H_
#define MITTOS_LSM_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mitt::lsm {

class BloomFilter {
 public:
  // `bits_per_key` ~ 10 gives ~1% false positives.
  explicit BloomFilter(size_t expected_keys, int bits_per_key = 10);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

 private:
  static uint64_t Mix(uint64_t key, uint64_t salt);

  int hashes_;
  std::vector<bool> bits_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_BLOOM_H_
