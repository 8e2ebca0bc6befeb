// Tenant -> replica-group placement map.
//
// Routing state shared between the client strategies (readers, per request)
// and the placement controller (writer, per control tick). The map is a flat
// `num_tenants x replication` array of node ids, primary first; `group()`
// returns a fixed-size value type so the per-request lookup allocates
// nothing.
//
// Concurrency contract (the reason this is safe without atomics): shard
// threads only read the map while the sharded engine is *running* a window,
// and the controller only writes it from a quiesced `ScheduleGlobal` event —
// the same barrier discipline fault injection uses. Reads and writes are
// therefore never concurrent, and every shard observes a migration at the
// same simulated instant, which keeps runs bit-identical at any
// MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS.

#ifndef MITTOS_TENANT_PLACEMENT_H_
#define MITTOS_TENANT_PLACEMENT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/tenant/tenant.h"

namespace mitt::tenant {

// A replica set, primary first: a tenant's placement group or a key's ring
// replicas (cluster::Cluster::ReplicasOf). Value type: returned by copy from
// the hot-path lookups, so no heap traffic per request.
struct ReplicaGroup {
  static constexpr int kMaxReplication = 8;
  int32_t node[kMaxReplication] = {};
  int size = 0;

  int32_t operator[](int i) const { return node[i]; }
  const int32_t* begin() const { return node; }
  const int32_t* end() const { return node + size; }
  friend bool operator==(const ReplicaGroup& a, const ReplicaGroup& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

class PlacementMap {
 public:
  PlacementMap(uint32_t num_tenants, int replication)
      : replication_(replication),
        nodes_(static_cast<size_t>(num_tenants) * static_cast<size_t>(replication), -1) {}

  // Naive uniform placement: each tenant's primary is a seeded hash of its
  // id over the ring, replicas on the ring successors — placement that knows
  // nothing about rates, SLOs, or node health (the baseline bench_tenant
  // melts).
  static PlacementMap Uniform(uint32_t num_tenants, int num_nodes, int replication,
                              uint64_t seed);

  uint32_t num_tenants() const {
    return replication_ == 0 ? 0 : static_cast<uint32_t>(nodes_.size() / replication_);
  }
  int replication() const { return replication_; }

  // --- Per-request hot path: dense indexing, no allocation ---
  int32_t primary(TenantId t) const { return nodes_[Index(t)]; }
  ReplicaGroup group(TenantId t) const {
    ReplicaGroup g;
    const size_t base = Index(t);
    g.size = replication_;
    for (int r = 0; r < replication_; ++r) {
      g.node[r] = nodes_[base + static_cast<size_t>(r)];
    }
    return g;
  }

  // --- Controller-side mutation (quiesced only; see header comment) ---
  void Assign(TenantId t, const ReplicaGroup& g) {
    const size_t base = Index(t);
    for (int r = 0; r < replication_; ++r) {
      nodes_[base + static_cast<size_t>(r)] = g.node[r];
    }
    ++version_;
  }

  // Migration epoch: bumped once per Assign, so tests can assert exactly how
  // many placements moved.
  uint64_t version() const { return version_; }

 private:
  size_t Index(TenantId t) const {
    return static_cast<size_t>(t) * static_cast<size_t>(replication_);
  }

  int replication_;
  std::vector<int32_t> nodes_;
  uint64_t version_ = 0;
};

}  // namespace mitt::tenant

#endif  // MITTOS_TENANT_PLACEMENT_H_
