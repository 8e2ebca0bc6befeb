#include "src/kv/doc_store_node.h"

#include <utility>

namespace mitt::kv {
namespace {

constexpr int64_t kDocSize = 1024;   // 1 KB documents (YCSB workloads, §7).
constexpr int64_t kSlotSize = 4096;  // One page per document slot.
constexpr int32_t kServerPid = 1;

}  // namespace

DocStoreNode::DocStoreNode(sim::Simulator* sim, int node_id, const Options& options,
                           cluster::CpuPool* shared_cpu)
    : StorageNode(sim, node_id, options, /*seed_salt=*/0x1000'0001ULL, shared_cpu,
                  options.exception_on_ebusy),
      options_(options) {
  data_file_ = os().CreateFile(data_file_size());
}

int64_t DocStoreNode::data_file_size() const { return options_.num_keys * kSlotSize; }

int64_t DocStoreNode::OffsetOfKey(uint64_t key) const {
  return static_cast<int64_t>(key % static_cast<uint64_t>(options_.num_keys)) * kSlotSize;
}

void DocStoreNode::WarmCache(double fraction) {
  const auto warm_keys =
      static_cast<int64_t>(static_cast<double>(options_.num_keys) * fraction);
  if (warm_keys > 0) {
    // A slot is one page, so this is every warm key's page, in key order.
    static_assert(kSlotSize == os::kPageSize);
    os().Prefault(data_file_, 0, (warm_keys - 1) * kSlotSize + kDocSize);
  }
}

void DocStoreNode::Read(Request* r) {
  const int64_t offset = OffsetOfKey(r->key);
  if (options_.access == AccessPath::kMmapAddrCheck && !r->degraded) {
    const auto check = os().AddrCheck(data_file_, offset, kDocSize, r->deadline, r->trace);
    if (check.status.busy()) {
      // Fail over instantly; the OS keeps swapping the page in behind us.
      // The wait hint is the device floor (the page must come off the disk).
      const DurationNs hint = os().MinDeviceLatency();
      sim()->Schedule(check.cost, [this, r, hint] { ReadDone(r, Status::Ebusy(), hint); });
      return;
    }
    sim()->Schedule(check.cost, [this, r, offset] {
      os().MmapAccess(data_file_, offset, kDocSize, kServerPid,
                      [this, r](Status s, DurationNs) { ReadDone(r, s, 0); });
    });
    return;
  }

  os::Os::ReadArgs args;
  args.file = data_file_;
  args.offset = offset;
  args.size = kDocSize;
  args.deadline = r->deadline;
  args.pid = kServerPid;
  args.trace = r->trace;
  os().ReadWithWaitHint(args, [this, r](Status s, DurationNs hint) { ReadDone(r, s, hint); });
}

void DocStoreNode::Write(Request* r) {
  os::Os::WriteArgs args;
  args.file = data_file_;
  args.offset = OffsetOfKey(r->key);
  args.size = kDocSize;
  args.pid = kServerPid;
  os().Write(args, [this, r](Status s, DurationNs) { WriteDone(r, s); });
}

}  // namespace mitt::kv
