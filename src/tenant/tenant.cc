#include "src/tenant/tenant.h"

#include <algorithm>
#include <cmath>

namespace mitt::tenant {
namespace {

// Each tenant's gets draw from its own stripe of this many keys.
constexpr uint64_t kKeysPerTenant = 512;

}  // namespace

std::vector<SloClass> TenantDirectory::DefaultClasses() {
  return {
      {"gold", Millis(15), 4.0, 0},
      {"silver", Millis(40), 2.0, 1},
      {"bronze", Millis(100), 1.0, 2},
  };
}

TenantDirectory TenantDirectory::BuildMix(const MixOptions& options) {
  TenantDirectory dir;
  std::vector<SloClass> classes =
      options.classes.empty() ? DefaultClasses() : options.classes;
  const auto num_classes = static_cast<uint32_t>(classes.size());
  for (const SloClass& c : classes) {
    dir.AddClass(c);
  }

  // Zipf-skewed rate over rank: weight(rank) = 1 / (rank+1)^theta, scaled by
  // the tenant's class weight, normalized so the population sums to
  // total_rate_hz. Rank == tenant id, so tenant 0 is the biggest whale.
  Rng rng(options.seed);
  const uint32_t n = options.num_tenants;
  std::vector<uint32_t> cls_of(n);
  std::vector<double> raw(n);
  double raw_sum = 0;
  for (uint32_t t = 0; t < n; ++t) {
    // Class by equal shares, from the directory's own seeded stream.
    const double draw = rng.NextDouble() * static_cast<double>(num_classes);
    const uint32_t c = std::min(static_cast<uint32_t>(draw), num_classes - 1);
    cls_of[t] = c;
    raw[t] = classes[c].weight /
             std::pow(static_cast<double>(t + 1), options.rate_zipf_theta);
    raw_sum += raw[t];
  }

  for (uint32_t t = 0; t < n; ++t) {
    TenantSpec spec;
    spec.cls = cls_of[t];
    spec.rate_hz = options.total_rate_hz * raw[t] / raw_sum;
    // Stripe key ranges over the keyspace; wraparound is fine (the store
    // slots keys modulo num_keys anyway).
    spec.key_base = (static_cast<uint64_t>(t) * kKeysPerTenant) % options.keyspace;
    spec.key_span = kKeysPerTenant;
    dir.AddTenant(spec);
  }
  return dir;
}

}  // namespace mitt::tenant
