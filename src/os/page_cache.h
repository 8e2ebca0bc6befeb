// OS buffer/page cache: page-granular LRU over (file, page) keys.
//
// MittCache (§4.4) is a thin layer over this table: residency lookups are
// O(1) hash-table probes ("addrcheck traverses existing hash tables in
// O(1)"), and multi-tenant memory contention is emulated by evicting a
// fraction of the resident pages (the paper injects cache misses the same
// way, with posix_fadvise, §7.1/§7.4).
//
// Storage is a single open-addressing hash table (linear probing, load
// factor <= 1/2, backward-shift deletion) of 16-byte slots. LRU order lives
// in each slot's last-use stamp, a per-cache counter bumped on every insert
// and touch: a hit writes one field of the slot it probed, and eviction
// pops the smallest stamp from a sorted batch of the oldest pages. The
// table is sized for what it holds (min(2^16, 2 x capacity) slots at the
// first insert, doubled at load 1/2), and at steady state no operation
// allocates.

#ifndef MITTOS_OS_PAGE_CACHE_H_
#define MITTOS_OS_PAGE_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace mitt::os {

inline constexpr int64_t kPageSize = 4096;

struct PageCacheParams {
  size_t capacity_pages = 1 << 20;  // 4 GiB of 4 KiB pages.
};

class PageCache {
 public:
  explicit PageCache(const PageCacheParams& params);

  // True iff every page of [offset, offset+len) of `file` is resident.
  // Does not touch LRU state (AddrCheck must not perturb eviction order).
  bool Resident(uint64_t file, int64_t offset, int64_t len) const;

  // Marks the range resident, evicting LRU pages if over capacity.
  void Insert(uint64_t file, int64_t offset, int64_t len);

  // A read access: if every page of the range is resident, moves them to the
  // MRU end and returns true; otherwise changes nothing and returns false. A
  // one-page range is one probe.
  bool Touch(uint64_t file, int64_t offset, int64_t len);

  // Evicts pages covering the range, if resident.
  void EvictRange(uint64_t file, int64_t offset, int64_t len);

  // Evicts approximately `fraction` of all resident pages, chosen uniformly —
  // the noisy-neighbor memory contention / VM ballooning effect (§6, §7.1).
  // One Bernoulli draw per resident page, in LRU order.
  void EvictFraction(double fraction, Rng& rng);

  size_t resident_pages() const { return count_; }
  const PageCacheParams& params() const { return params_; }

 private:
  static constexpr uint32_t kNil = 0xFFFF'FFFFu;
  static constexpr size_t kMaxFirstSlots = size_t{1} << 16;

  struct Slot {
    uint64_t key = 0;
    uint64_t stamp = 0;  // Last use; 0 = free slot.
  };

  static uint64_t Key(uint64_t file, int64_t page) {
    return (file << 40) | static_cast<uint64_t>(page);
  }
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  uint32_t Mask() const { return static_cast<uint32_t>(slots_.size() - 1); }
  uint32_t HashIndex(uint64_t key) const {
    return static_cast<uint32_t>(Mix(key)) & Mask();
  }

  // Index of key's slot, or of the free slot that ends its probe path.
  uint32_t Probe(uint64_t key) const;
  uint32_t FindIndex(uint64_t key) const;
  void EraseIndex(uint32_t i);
  // Grows the table, by one rehash, until `pages` fit at load <= 1/2.
  void Reserve(size_t pages);
  // Refills victims_ with the `keep` oldest resident pages, youngest first.
  void CollectOldest(size_t keep);
  void EvictOldest();

  PageCacheParams params_;
  std::vector<Slot> slots_;  // Power-of-two size; empty until the first insert.
  size_t count_ = 0;
  uint64_t clock_ = 0;  // Last stamp handed out.
  // Eviction batch, popped from the back. It holds every resident page whose
  // stamp is at most its largest, so the first entry that still matches its
  // slot's stamp is the LRU page.
  std::vector<Slot> victims_;
};

}  // namespace mitt::os

#endif  // MITTOS_OS_PAGE_CACHE_H_
