// Base (no tail tolerance) and application-timeout (AppTO) strategies.
//
// TimeoutStrategy covers both §7.2's "Base" (a very coarse timeout, as the
// NoSQL defaults of Table 1: tens of seconds) and "AppTO" (timeout = the p95
// deadline; cancel the first try at the application level and retry the next
// replica; the third try disables the timeout).
//
// Table 1's finding that several systems do *not* fail over on timeout — the
// user just gets a read error — is modelled by `failover_on_timeout = false`.

#ifndef MITTOS_CLIENT_TIMEOUT_H_
#define MITTOS_CLIENT_TIMEOUT_H_

#include "src/client/strategy.h"

namespace mitt::client {

class TimeoutStrategy : public GetStrategy {
 public:
  struct Options {
    DurationNs timeout = Seconds(30);
    bool failover_on_timeout = true;
    int max_tries = 3;  // Last try runs without a timeout.
  };

  TimeoutStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                  const Options& options);
  ~TimeoutStrategy() override;

  void Get(uint64_t key, GetDoneFn done) override;
  // Tenant-aware: routes via the placement map; ctx.deadline (the tenant's
  // class SLO) replaces the configured timeout for this request.
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  uint64_t timeouts_fired() const { return timeouts_fired_; }

 private:
  struct GetState;

  void Attempt(GetState* g);
  void OnTimer(GetState* g, int try_index);
  void OnReply(GetState* g, int try_index, Status status);
  void Finish(GetState* g, Status status);
  // Drops one of the scheduled events holding `g`; the last one returns a
  // settled get to the pool.
  void Drop(GetState* g);

  Options options_;
  uint64_t timeouts_fired_ = 0;
  SlotPool<GetState> gets_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_TIMEOUT_H_
