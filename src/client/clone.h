// Cloning (§1, §7.2): "for every user request, duplicate it to two random
// replica nodes (out of three choices) and pick the first response." Cuts the
// tail but doubles IO intensity, which self-inflicts noise in the common case
// (Fig. 5a: Clone is worse than Base below ~p93).

#ifndef MITTOS_CLIENT_CLONE_H_
#define MITTOS_CLIENT_CLONE_H_

#include "src/client/strategy.h"

namespace mitt::client {

class CloneStrategy : public GetStrategy {
 public:
  CloneStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed);

  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

 private:
  GetPool<GetRecord> gets_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_CLONE_H_
