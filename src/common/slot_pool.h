// Slot arena for pooled per-request records.
//
// Mirrors the simulator's event arena (src/sim/simulator.cc): records live
// in fixed-size blocks with stable addresses, a free list recycles slots,
// and a per-slot epoch with a live bit makes a double release or a pointer
// the pool did not hand out abort loudly instead of corrupting a reused
// record. Acquire/Release replace a per-request make_unique/delete (or a
// closure that outgrows InlineFunction's inline buffer) on the hot path.
//
// A record type T is default-constructible and move-assignable and carries
// the pool's bookkeeping in two members, `uint32_t pool_slot` and
// `uint32_t pool_epoch`. Acquire hands out a value-reset record; Release
// leaves the payload alone, so owners move callbacks out of a record before
// releasing it (the release-before-callback rule: the callback may then
// issue a new request that reuses the slot at once).
//
// Owners: Os (syscall-layer descriptors), DiskModel (NVRAM destages), SsdGc
// (garbage-collection IOs), GetStrategy (client hop records), MittosStrategy
// and TimeoutStrategy (per-Get state), DocStoreNode (server request
// records). Pools start empty and grow one block at a time. A pool is
// touched by one thread only: the shard its owner runs on.

#ifndef MITTOS_COMMON_SLOT_POOL_H_
#define MITTOS_COMMON_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

namespace mitt {

template <typename T, size_t kBlockSize = 256>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // Returns a freshly reset record. The pool retains ownership; the pointer
  // is stable until Release.
  T* Acquire() {
    if (free_.empty()) {
      AddBlock();
    }
    uint32_t slot = free_.back();
    free_.pop_back();
    T* rec = At(slot);
    uint32_t epoch = rec->pool_epoch;
    *rec = T{};
    rec->pool_slot = slot;
    rec->pool_epoch = epoch | kLiveBit;
    ++live_;
    return rec;
  }

  // Returns a record to the free list. Aborts on double-release or on a
  // pointer that does not belong to this pool's slot.
  void Release(T* rec) {
    uint32_t slot = rec->pool_slot;
    if (slot >= blocks_.size() * kBlockSize || At(slot) != rec ||
        (rec->pool_epoch & kLiveBit) == 0) {
      std::fprintf(stderr, "SlotPool: bad release of slot %u\n", slot);
      std::abort();
    }
    rec->pool_epoch = (rec->pool_epoch & ~kLiveBit) + 1;
    free_.push_back(slot);
    --live_;
  }

  size_t live() const { return live_; }
  size_t capacity() const { return blocks_.size() * kBlockSize; }

 private:
  static constexpr uint32_t kLiveBit = 0x8000'0000u;

  T* At(uint32_t slot) { return &blocks_[slot / kBlockSize][slot % kBlockSize]; }

  void AddBlock() {
    uint32_t base = static_cast<uint32_t>(blocks_.size() * kBlockSize);
    blocks_.push_back(std::make_unique<T[]>(kBlockSize));
    T* block = blocks_.back().get();
    free_.reserve(blocks_.size() * kBlockSize);
    // Hand slots out in ascending order: the freshest block's low slots end
    // up at the back of the free list.
    for (size_t i = kBlockSize; i-- > 0;) {
      block[i].pool_slot = base + static_cast<uint32_t>(i);
      free_.push_back(base + static_cast<uint32_t>(i));
    }
  }

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace mitt

#endif  // MITTOS_COMMON_SLOT_POOL_H_
