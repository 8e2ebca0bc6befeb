#include "src/os/page_cache.h"

namespace mitt::os {

PageCache::PageCache(const PageCacheParams& params) : params_(params) {}

uint32_t PageCache::FindIndex(uint64_t key) const {
  if (slots_.empty()) {
    return kNil;
  }
  // Load factor <= 1/2 guarantees an unused slot terminates the probe.
  uint32_t i = HashIndex(key);
  while (slots_[i].used) {
    if (slots_[i].key == key) {
      return i;
    }
    i = (i + 1) & Mask();
  }
  return kNil;
}

void PageCache::UnlinkLru(uint32_t i) {
  const Slot& s = slots_[i];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void PageCache::LinkMru(uint32_t i) {
  Slot& s = slots_[i];
  s.prev = tail_;
  s.next = kNil;
  if (tail_ != kNil) {
    slots_[tail_].next = i;
  } else {
    head_ = i;
  }
  tail_ = i;
}

void PageCache::MoveSlot(uint32_t from, uint32_t to) {
  Slot& dst = slots_[to];
  const Slot& src = slots_[from];
  dst.key = src.key;
  dst.prev = src.prev;
  dst.next = src.next;
  dst.used = true;
  slots_[from].used = false;
  // The LRU chain still points at `from`; redirect its neighbors (or the
  // chain ends) to `to`.
  if (dst.prev != kNil) {
    slots_[dst.prev].next = to;
  } else {
    head_ = to;
  }
  if (dst.next != kNil) {
    slots_[dst.next].prev = to;
  } else {
    tail_ = to;
  }
}

void PageCache::EraseIndex(uint32_t i) {
  UnlinkLru(i);
  slots_[i].used = false;
  --count_;
  // Backward-shift deletion: walk the probe cluster after the hole and pull
  // back any entry whose probe path crossed it, so lookups never need
  // tombstones.
  uint32_t hole = i;
  uint32_t j = (i + 1) & Mask();
  while (slots_[j].used) {
    const uint32_t home = HashIndex(slots_[j].key);
    if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
      MoveSlot(j, hole);
      hole = j;
    }
    j = (j + 1) & Mask();
  }
}

void PageCache::PlaceNew(uint64_t key) {
  uint32_t i = HashIndex(key);
  while (slots_[i].used) {
    i = (i + 1) & Mask();
  }
  slots_[i].key = key;
  slots_[i].used = true;
  ++count_;
  LinkMru(i);
}

void PageCache::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const uint32_t old_head = head_;
  slots_.assign(old.size() * 2, Slot{});
  head_ = tail_ = kNil;
  count_ = 0;
  // Re-insert in LRU-to-MRU order: appending at MRU preserves the order.
  for (uint32_t i = old_head; i != kNil;) {
    const uint32_t next = old[i].next;
    PlaceNew(old[i].key);
    i = next;
  }
}

void PageCache::InsertOne(uint64_t key) {
  if (slots_.empty()) {
    // Size the table once, for the declared capacity at load factor 1/2:
    // 48 bytes per capacity page, ~1% of the memory the cache models.
    // Growing from small through doublings would re-insert every resident
    // page once per doubling while a large cache warms.
    size_t want = kInitialSlots;
    while (want < params_.capacity_pages * 2) {
      want <<= 1;
    }
    slots_.assign(want, Slot{});
  }
  const uint32_t hit = FindIndex(key);
  if (hit != kNil) {
    UnlinkLru(hit);
    LinkMru(hit);
    return;
  }
  if (count_ >= params_.capacity_pages && count_ > 0) {
    EraseIndex(head_);  // Evict the LRU page.
  }
  if ((count_ + 1) * 2 > slots_.size()) {
    Grow();
  }
  PlaceNew(key);
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
  for (int64_t p = first; p <= last; ++p) {
    InsertOne(Key(file, p));
  }
}

void PageCache::Touch(uint64_t file, int64_t offset, int64_t len) {
  const int64_t first = offset / kPageSize;
  const int64_t last = (offset + (len > 0 ? len : 1) - 1) / kPageSize;
  for (int64_t p = first; p <= last; ++p) {
    const uint32_t i = FindIndex(Key(file, p));
    if (i != kNil) {
      UnlinkLru(i);
      LinkMru(i);
    }
  }
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
  // One Bernoulli draw per resident page, like the old map-order walk; the
  // walk is now in canonical LRU order. Erasure shifts slots around, so
  // collect keys first.
  std::vector<uint64_t> victims;
  victims.reserve(static_cast<size_t>(static_cast<double>(count_) * fraction) + 1);
  for (uint32_t i = head_; i != kNil; i = slots_[i].next) {
    if (rng.Bernoulli(fraction)) {
      victims.push_back(slots_[i].key);
    }
  }
  for (const uint64_t key : victims) {
    const uint32_t i = FindIndex(key);
    if (i != kNil) {
      EraseIndex(i);
    }
  }
}

}  // namespace mitt::os
