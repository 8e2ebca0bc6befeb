#include "src/lsm/lsm_node.h"

#include <numeric>
#include <vector>

namespace mitt::lsm {

LsmNode::LsmNode(sim::Simulator* sim, int node_id, const kv::StorageNode::Options& options,
                 cluster::CpuPool* shared_cpu)
    : kv::StorageNode(sim, node_id, options, /*seed_salt=*/0x2000'0003ULL, shared_cpu,
                      /*exception_on_ebusy=*/false),
      num_keys_(static_cast<uint64_t>(options.num_keys)),
      lsm_(std::make_unique<LsmTree>(sim, &os(), LsmTree::Options{})) {
  std::vector<uint64_t> keys(num_keys_);
  std::iota(keys.begin(), keys.end(), 0);
  lsm_->BulkLoad(keys);
}

void LsmNode::Read(Request* r) {
  lsm_->Get(
      EntryOf(r->key), r->deadline,
      [this, r](Status s, DurationNs) {
        ReadDone(r, s, r->degraded && s.busy() ? os().MinDeviceLatency() : 0);
      },
      r->trace);
}

void LsmNode::Write(Request* r) {
  lsm_->Put(EntryOf(r->key), [this, r](Status s, DurationNs) { WriteDone(r, s); });
}

}  // namespace mitt::lsm
