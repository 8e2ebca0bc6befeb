// Tenant model (ROADMAP item 4, Serifos direction): dense tenant ids, SLO
// classes, and per-tenant arrival specs over the ring.
//
// Everything in the repo used to be one tenant with one SLO; this layer gives
// the cluster thousands of tenants, each belonging to one of a few SLO
// classes {slo, weight, priority}, with its own arrival rate and key range.
// The directory is immutable once built and every per-request lookup —
// class_of(), slo_of(), spec() — is a dense-array index: O(1), branch-light
// and allocation-free, so the client hot path can consult it per get.
//
// `BuildMix` fabricates a deterministic many-tenant population from one seed:
// Zipf-skewed arrival rates over tenant ranks (a handful of whales, a long
// tail of mice — the skew is what makes naive placement melt a node) and
// seeded class assignment by share.

#ifndef MITTOS_TENANT_TENANT_H_
#define MITTOS_TENANT_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace mitt::tenant {

using TenantId = uint32_t;
inline constexpr TenantId kNoTenant = 0xFFFFFFFFu;

// One SLO class shared by many tenants. `priority` ranks strictness (0 =
// strictest); the placement controller evacuates strict classes off a hot
// node first. `weight` scales a tenant's share of the synthetic rate mix.
struct SloClass {
  std::string name;
  DurationNs slo = Millis(20);
  double weight = 1.0;
  int8_t priority = 0;
};

// Per-tenant arrival spec: SLO class, open-loop arrival rate, and the key
// range its gets draw from (keys are `key_base + u` for u in [0, key_span)).
struct TenantSpec {
  uint32_t cls = 0;
  double rate_hz = 0.0;
  uint64_t key_base = 0;
  uint64_t key_span = 1;
};

struct MixOptions {
  uint32_t num_tenants = 2000;
  double total_rate_hz = 50000.0;
  // Zipf exponent over tenant rank for the rate mix (0 = uniform rates).
  double rate_zipf_theta = 0.9;
  uint64_t keyspace = 1 << 20;
  // Classes; each takes an equal share of the tenants.
  std::vector<SloClass> classes;
  uint64_t seed = 1;
};

class TenantDirectory {
 public:
  uint32_t AddClass(const SloClass& cls) {
    classes_.push_back(cls);
    return static_cast<uint32_t>(classes_.size() - 1);
  }

  TenantId AddTenant(const TenantSpec& spec) {
    specs_.push_back(spec);
    return static_cast<TenantId>(specs_.size() - 1);
  }

  uint32_t num_tenants() const { return static_cast<uint32_t>(specs_.size()); }
  uint32_t num_classes() const { return static_cast<uint32_t>(classes_.size()); }

  // --- Per-request hot-path lookups: dense-array indexing, no allocation ---
  uint32_t class_of(TenantId t) const { return specs_[t].cls; }
  DurationNs slo_of(TenantId t) const { return classes_[specs_[t].cls].slo; }
  int8_t priority_of(TenantId t) const { return classes_[specs_[t].cls].priority; }
  const TenantSpec& spec(TenantId t) const { return specs_[t]; }
  const SloClass& cls(uint32_t c) const { return classes_[c]; }

  double total_rate_hz() const {
    double r = 0;
    for (const TenantSpec& s : specs_) {
      r += s.rate_hz;
    }
    return r;
  }

  // Deterministic many-tenant population: Zipf-skewed rates over rank,
  // class membership drawn by share from `seed`, key ranges striped over the
  // keyspace. Same options -> bit-identical directory.
  static TenantDirectory BuildMix(const MixOptions& options);

  // The gold/silver/bronze default mix used by benches and tests.
  static std::vector<SloClass> DefaultClasses();

 private:
  std::vector<SloClass> classes_;
  std::vector<TenantSpec> specs_;
};

}  // namespace mitt::tenant

#endif  // MITTOS_TENANT_TENANT_H_
