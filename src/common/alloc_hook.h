// Heap-allocation counters for the allocation gates and the microbenches.
//
// Linking the mitt_alloc_hook object library into a binary replaces the
// global operator new/delete with malloc/free-backed versions that count
// every allocation and its size; tests/alloc_test.cc, bench_simcore and
// bench_hotpath link it. The replacement conflicts with sanitizer
// interceptors, so under ASan/TSan/MSan MITT_ALLOC_HOOKS is 0, nothing is
// replaced and both counters read 0 (alloc_test skips its gates there).

#ifndef MITTOS_COMMON_ALLOC_HOOK_H_
#define MITTOS_COMMON_ALLOC_HOOK_H_

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MITT_ALLOC_HOOKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MITT_ALLOC_HOOKS 0
#endif
#endif
#ifndef MITT_ALLOC_HOOKS
#define MITT_ALLOC_HOOKS 1
#endif

namespace mitt {

// Heap allocations (and bytes requested) since the program started.
uint64_t AllocCount();
uint64_t AllocBytes();

}  // namespace mitt

#endif  // MITTOS_COMMON_ALLOC_HOOK_H_
