// Base (no tail tolerance), application-timeout (AppTO) and Hedged
// strategies: one timeout walk in three configurations.
//
// Try i goes to replica i (mod the group size), and a timer `timeout` after
// it sends try i+1; the last try runs without a timer.
//
//  * Base (§7.2): a very coarse timeout, as the NoSQL defaults of Table 1
//    (tens of seconds).
//  * AppTO: timeout = the p95 deadline; the timer cancels the earlier try at
//    the application level and retries the next replica; the third try
//    disables the timeout. Table 1's finding that several systems do *not*
//    fail over on timeout — the user just gets a read error — is modelled by
//    `failover_on_timeout = false`.
//  * Hedged requests (Dean & Barroso [19], §7.2): "a secondary request is
//    sent after the first request has been outstanding for more than the
//    95th-percentile expected latency, which limits the additional load to
//    approximately 5% while substantially shortening the latency tail." Two
//    tries, and the first is NOT cancelled: whichever replies first settles
//    the get (Options::Hedged).

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
    // Whether a fired timer abandons the earlier try (Base, AppTO). When it
    // does not (Hedged), the earlier try's reply can still settle the get.
    bool abandon_on_timeout = true;

    // The hedged-request configuration: the hedge is the one timer.
    static Options Hedged(DurationNs hedge_delay) {
      return {.timeout = hedge_delay, .max_tries = 2, .abandon_on_timeout = false};
    }
  };

  TimeoutStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                  const Options& options);
  ~TimeoutStrategy() override;

  // Tenant-aware: routes via the placement map; ctx.deadline (the tenant's
  // class SLO) replaces the configured timeout for this request.
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  // Timers that fired: timeouts for Base and AppTO, hedges sent for Hedged.
  uint64_t timeouts_fired() const { return timeouts_fired_; }

 private:
  struct GetState;

  void Attempt(GetState* g);
  void OnTimer(GetState* g);
  void OnReply(GetState* g, int try_index, Status status);

  Options options_;
  uint64_t timeouts_fired_ = 0;
  GetPool<GetState> gets_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_TIMEOUT_H_
