#include "src/os/page_cache.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

namespace mitt::os {
namespace {

// An eviction batch holds the oldest eighth of the resident pages.
constexpr size_t kBatchDivisor = 8;

}  // namespace

PageCache::PageCache(const PageCacheParams& params) : params_(params) {}

uint32_t PageCache::Probe(uint64_t key) const {
  // Load factor <= 1/2 guarantees a free slot terminates the probe.
  uint32_t i = HashIndex(key);
  while (slots_[i].stamp != 0 && slots_[i].key != key) {
    i = (i + 1) & Mask();
  }
  return i;
}

uint32_t PageCache::FindIndex(uint64_t key) const {
  if (slots_.empty()) {
    return kNil;
  }
  const uint32_t i = Probe(key);
  return slots_[i].stamp != 0 ? i : kNil;
}

void PageCache::EraseIndex(uint32_t i) {
  slots_[i].stamp = 0;
  --count_;
  // Backward-shift deletion: walk the probe cluster after the hole and pull
  // back any entry whose probe path crossed it, so lookups never need
  // tombstones.
  uint32_t hole = i;
  for (uint32_t j = (i + 1) & Mask(); slots_[j].stamp != 0; j = (j + 1) & Mask()) {
    const uint32_t home = HashIndex(slots_[j].key);
    if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
      slots_[hole] = slots_[j];
      slots_[j].stamp = 0;
      hole = j;
    }
  }
}

void PageCache::Reserve(size_t pages) {
  if (pages * 2 <= slots_.size()) {
    return;
  }
  size_t want = std::bit_ceil(pages * 2);
  if (slots_.empty()) {  // The first table fits the whole capacity, up to 2^16 slots.
    want = std::max(want, std::bit_ceil(std::min(params_.capacity_pages, kMaxFirstSlots / 2) * 2));
  }
  // A plain rehash: LRU order lives in the stamps, which move with the slots.
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(want));
  for (const Slot& s : old) {
    if (s.stamp != 0) {
      slots_[Probe(s.key)] = s;
    }
  }
}

void PageCache::CollectOldest(size_t keep) {
  victims_.clear();
  // clear() keeps the buffer, so this allocates only when more pages are
  // resident than at every earlier refill.
  victims_.reserve(count_);
  for (const Slot& s : slots_) {
    if (s.stamp != 0) {
      victims_.push_back(s);
    }
  }
  const auto begin = victims_.begin();
  std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(keep), victims_.end(),
                   [](const Slot& a, const Slot& b) { return a.stamp < b.stamp; });
  victims_.resize(keep);
  std::sort(victims_.begin(), victims_.end(),
            [](const Slot& a, const Slot& b) { return a.stamp > b.stamp; });
}

void PageCache::EvictOldest() {
  for (;;) {
    if (victims_.empty()) {
      CollectOldest(std::max<size_t>(count_ / kBatchDivisor, 1));
    }
    const Slot v = victims_.back();
    victims_.pop_back();
    const uint32_t i = FindIndex(v.key);
    if (i != kNil && slots_[i].stamp == v.stamp) {
      EraseIndex(i);
      return;
    }
  }
}

bool PageCache::Resident(uint64_t file, int64_t offset, int64_t len) const {
  const int64_t first = offset / kPageSize;
  const int64_t last = (offset + (len > 0 ? len : 1) - 1) / kPageSize;
  for (int64_t p = first; p <= last; ++p) {
    if (FindIndex(Key(file, p)) == kNil) {
      return false;
    }
  }
  return true;
}

void PageCache::Insert(uint64_t file, int64_t offset, int64_t len) {
  const int64_t first = offset / kPageSize;
  const int64_t last = (offset + (len > 0 ? len : 1) - 1) / kPageSize;
  // Room for the whole range first, so a large warm-up rehashes at most once
  // and no page of the loop below grows the table. Eviction keeps the count
  // at most the capacity, or at one page when the capacity is 0.
  Reserve(std::min(count_ + static_cast<size_t>(last - first + 1),
                   std::max<size_t>(params_.capacity_pages, 1)));
  for (int64_t p = first; p <= last; ++p) {
    const uint64_t key = Key(file, p);
    uint32_t i = Probe(key);
    if (slots_[i].stamp != 0) {
      slots_[i].stamp = ++clock_;
      continue;
    }
    if (count_ >= params_.capacity_pages && count_ > 0) {
      EvictOldest();
      i = Probe(key);  // The eviction's backward shift may have moved the free slot.
    }
    slots_[i] = Slot{key, ++clock_};
    ++count_;
  }
}

bool PageCache::Touch(uint64_t file, int64_t offset, int64_t len) {
  const int64_t first = offset / kPageSize;
  const int64_t last = (offset + (len > 0 ? len : 1) - 1) / kPageSize;
  // A longer range checks every page before it stamps any.
  if (first != last && !Resident(file, offset, len)) {
    return false;
  }
  for (int64_t p = first; p <= last; ++p) {
    const uint32_t i = FindIndex(Key(file, p));
    if (i == kNil) {
      return false;  // Only a one-page range gets here.
    }
    slots_[i].stamp = ++clock_;
  }
  return true;
}

void PageCache::EvictRange(uint64_t file, int64_t offset, int64_t len) {
  const int64_t first = offset / kPageSize;
  const int64_t last = (offset + (len > 0 ? len : 1) - 1) / kPageSize;
  for (int64_t p = first; p <= last; ++p) {
    const uint32_t i = FindIndex(Key(file, p));
    if (i != kNil) {
      EraseIndex(i);
    }
  }
}

void PageCache::EvictFraction(double fraction, Rng& rng) {
  if (fraction <= 0 || count_ == 0) {
    return;
  }
  // One Bernoulli draw per resident page, oldest first. The batch then holds
  // every page, so it stays a valid eviction batch (erased entries are
  // skipped).
  CollectOldest(count_);
  for (size_t v = victims_.size(); v-- > 0;) {
    if (rng.Bernoulli(fraction)) {
      EraseIndex(FindIndex(victims_[v].key));
    }
  }
}

}  // namespace mitt::os
