#include "src/lsm/lsm_node.h"

#include <utility>

namespace mitt::lsm {

LsmNode::LsmNode(sim::Simulator* sim, int node_id, const Options& options)
    : kv::StorageNode(sim, node_id, options, /*seed_salt=*/0x2000'0003ULL, /*shared_cpu=*/nullptr,
                      /*tenant_slots=*/0, /*exception_on_ebusy=*/false),
      lsm_(std::make_unique<LsmTree>(sim, &os(), options.lsm)) {}

void LsmNode::Read(Request* r) {
  lsm_->Get(r->key, r->deadline, [this, r](Status s) {
    ReadDone(r, s, r->degraded && s.busy() ? os().MinDeviceLatency() : 0);
  });
}

void LsmNode::Write(uint64_t key, std::function<void(Status)> done) {
  lsm_->Put(key, std::move(done));
}

}  // namespace mitt::lsm
