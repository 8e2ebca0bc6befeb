// Point-to-point datacenter network model. The paper's testbed and EC2 both
// show ~0.3 ms for a failover hop (§3.3); we model a one-way message latency
// of ~150 us with small jitter, so a request/reply round trip is ~0.3 ms.
//
// Fault injection (src/fault/): deliveries are tagged with the node endpoint
// they enter or leave (`peer`), so per-link faults can be applied —
//  * delay multipliers (congested / degraded links),
//  * probabilistic loss, modeled as lost-then-retransmitted: the message is
//    redelivered one retransmit timeout later, so application timeout and
//    hedging paths trigger while closed request loops stay live,
//  * transient partitions: messages are held and delivered (fresh hop each)
//    when the partition heals.
// All fault randomness comes from the network's own seeded RNGs, keeping runs
// bit-identical at any MITT_TRIAL_WORKERS setting.
//
// Sharded mode (src/sim/sharded_engine.h): the network is the one layer that
// crosses shard boundaries, so it owns the cross-shard routing rules:
//  * one RNG *lane* per source shard — hop jitter and drop draws consumed
//    only by that shard's thread, so sequences are independent of worker
//    interleaving. Lane 0 is the stream a network on a plain Simulator
//    draws, so a 1-shard world draws exactly what a plain world does.
//  * a delivery names its destination shard: same-shard hops schedule
//    directly on the local simulator, cross-shard hops post timestamped
//    messages into the engine's mailboxes. Every hop takes
//    >= one_way - jitter, which is exactly the engine's lookahead.
//  * link-fault state (multipliers, drops, partitions) is only mutated while
//    the engine is quiesced (fault episodes run as global events), so shard
//    threads may read it without synchronization.
//  * partition-held messages are buffered per source lane and flushed in
//    (lane, arrival) order at heal time — a deterministic merge.
//
// Delivery closures are common::InlineFunction (48-byte SBO, move-only), so
// the per-hop schedule path allocates only when a capture outgrows the
// inline buffer — the PR-1 alloc-free hot path extended through the cluster
// layer (cross-shard mailbox slots retain capacity; see tests/alloc_test.cc).

#ifndef MITTOS_CLUSTER_NETWORK_H_
#define MITTOS_CLUSTER_NETWORK_H_

#include <unordered_map>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace mitt::sim {
class ShardedEngine;
}  // namespace mitt::sim

namespace mitt::cluster {

struct NetworkParams {
  DurationNs one_way = Micros(150);
  DurationNs jitter = Micros(15);  // Uniform +/- jitter.
  // Retransmit timeout for messages lost to kNetworkDrop faults.
  DurationNs retransmit_timeout = Millis(200);
};

// The conservative lookahead a ShardedEngine may use when this network is
// the only shard-crossing layer: the minimum possible one-way hop.
inline DurationNs MinOneWayHop(const NetworkParams& params) {
  return params.one_way - params.jitter;
}

class Network {
 public:
  // Deliveries not tied to a node endpoint (client-to-client control
  // traffic); only fabric-wide faults apply to them.
  static constexpr int kNoPeer = -1;

  using DeliverFn = InlineFunction<void()>;

  Network(sim::Simulator* sim, const NetworkParams& params, uint64_t seed);

  // Binds the network to a sharded engine: `node_shard[n]` is the shard that
  // owns node n. Call once, before any traffic. Lane 0 keeps the seed's own
  // RNG stream; lane s>0 gets an independent stream derived from the seed.
  void AttachShards(sim::ShardedEngine* engine, std::vector<int> node_shard);

  // Shard owning `node`; 0 when unsharded. kNoPeer maps to shard 0.
  int ShardOfNode(int node) const {
    return node >= 0 && node < static_cast<int>(node_shard_.size())
               ? node_shard_[static_cast<size_t>(node)]
               : 0;
  }

  // Delivers `fn` after one network hop; `peer` is the node endpoint the
  // message enters or leaves (for per-link fault application). The two
  // overloads without a destination deliver onto the *calling* shard (for
  // shard-local control traffic).
  void Deliver(DeliverFn fn) { Deliver(kNoPeer, std::move(fn)); }
  void Deliver(int peer, DeliverFn fn);
  // Shard-routed delivery: `fn` runs on `dst_shard`'s simulator.
  void Deliver(int peer, int dst_shard, DeliverFn fn);
  // Convenience: deliver onto the shard that owns `node`, tagged with it.
  void DeliverToNode(int node, DeliverFn fn) {
    Deliver(node, ShardOfNode(node), std::move(fn));
  }

  DurationNs round_trip_estimate() const { return 2 * params_.one_way; }
  const NetworkParams& params() const { return params_; }

  // --- Fault hooks (src/fault/) ---
  // `peer` < 0 targets the whole fabric; multipliers/probabilities reset to
  // the healthy values (1.0 / 0.0) when the episode ends. In sharded mode
  // these must only be called while the engine is quiesced (the fault
  // injector routes episodes through ShardedEngine::ScheduleGlobal).
  void SetLinkDelayMultiplier(int peer, double multiplier);
  void SetLinkDropProbability(int peer, double probability);
  // Entering a partition holds subsequent deliveries; leaving it flushes the
  // held messages in (source lane, arrival) order, each with a fresh hop.
  void SetLinkPartitioned(int peer, bool partitioned);
  bool LinkPartitioned(int peer) const;

  // Aggregated over lanes; read at harvest time (quiesced).
  uint64_t messages_delivered() const;
  uint64_t messages_dropped() const;   // Retransmitted.
  uint64_t messages_deferred() const;  // Partition-held.

 private:
  struct LinkFault {
    double delay_multiplier = 1.0;
    double drop_probability = 0.0;
    bool partitioned = false;
  };

  struct HeldMsg {
    int peer;
    int dst_shard;
    DeliverFn fn;
  };

  // Per-source-shard state, touched only by that shard's thread during a
  // window (and by the quiesced coordinator at barriers). Aligned out to a
  // cache line so two shards' RNG draws never false-share.
  struct alignas(64) Lane {
    Rng rng{0};
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t deferred = 0;
    std::vector<HeldMsg> held;  // Messages awaiting partition heal.
  };

  DurationNs SampleHop(Lane& lane, int peer);
  // Samples a hop from `src`'s lane and routes: local schedule when
  // dst_shard == src (or unsharded), engine mailbox post otherwise.
  void DeliverHop(int src, int peer, int dst_shard, DeliverFn fn);

  sim::Simulator* sim_;
  sim::ShardedEngine* engine_ = nullptr;
  NetworkParams params_;
  uint64_t seed_ = 0;
  std::vector<Lane> lanes_;  // lanes_[0] exists even unsharded.
  std::vector<int> node_shard_;
  double fabric_delay_multiplier_ = 1.0;
  double fabric_drop_probability_ = 0.0;
  std::unordered_map<int, LinkFault> link_faults_;
};

}  // namespace mitt::cluster

#endif  // MITTOS_CLUSTER_NETWORK_H_
