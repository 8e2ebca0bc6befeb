#include "src/cluster/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/sharded_engine.h"

namespace mitt::cluster {

namespace {
// Weyl increment decorrelating per-shard RNG lanes from one seed.
constexpr uint64_t kLaneSeedStride = 0x9E3779B97F4A7C15ULL;
}  // namespace

Network::Network(sim::Simulator* sim, const NetworkParams& params, uint64_t seed)
    : sim_(sim), params_(params) {
  lanes_.resize(1);
  lanes_[0].rng = Rng(seed);
  seed_ = seed;
}

void Network::AttachShards(sim::ShardedEngine* engine, std::vector<int> node_shard) {
  assert(engine != nullptr);
  assert(lanes_[0].delivered == 0 && "AttachShards must precede traffic");
  engine_ = engine;
  node_shard_ = std::move(node_shard);
  lanes_.resize(static_cast<size_t>(engine->num_shards()));
  for (size_t s = 1; s < lanes_.size(); ++s) {
    lanes_[s].rng = Rng(seed_ + kLaneSeedStride * static_cast<uint64_t>(s));
  }
}

DurationNs Network::SampleHop(Lane& lane, int peer) {
  const DurationNs jitter =
      params_.jitter > 0 ? lane.rng.UniformInt(-params_.jitter, params_.jitter) : 0;
  double multiplier = fabric_delay_multiplier_;
  if (peer != kNoPeer) {
    if (const auto it = link_faults_.find(peer); it != link_faults_.end()) {
      multiplier *= it->second.delay_multiplier;
    }
  }
  return static_cast<DurationNs>(static_cast<double>(params_.one_way + jitter) * multiplier);
}

void Network::DeliverHop(int src, int peer, int dst_shard, DeliverFn fn) {
  Lane& lane = lanes_[static_cast<size_t>(src)];
  DurationNs hop = SampleHop(lane, peer);
  double drop_prob = fabric_drop_probability_;
  if (peer != kNoPeer) {
    if (const auto it = link_faults_.find(peer); it != link_faults_.end()) {
      drop_prob = std::max(drop_prob, it->second.drop_probability);
    }
  }
  if (drop_prob > 0.0 && lane.rng.Bernoulli(drop_prob)) {
    // Lost on the wire; the transport retransmits after its timeout.
    hop += kRetransmitTimeout;
    ++lane.dropped;
  }
  ++lane.delivered;
  if (engine_ == nullptr) {
    sim_->Schedule(hop, std::move(fn));
    return;
  }
  sim::Simulator* src_sim = engine_->shard(src);
  if (dst_shard == src) {
    // Shard-local: no mailbox traffic.
    src_sim->Schedule(hop, std::move(fn));
    return;
  }
  // hop >= one_way - jitter == the engine lookahead, so the arrival time
  // clears the open window's horizon (Post clamps defensively regardless).
  engine_->Post(dst_shard, src_sim->Now() + hop, std::move(fn));
}

void Network::Deliver(int peer, DeliverFn fn) {
  const int src = engine_ != nullptr ? engine_->CurrentShardId() : 0;
  Deliver(peer, src, std::move(fn));
}

void Network::Deliver(int peer, int dst_shard, DeliverFn fn) {
  const int src = engine_ != nullptr ? engine_->CurrentShardId() : 0;
  if (peer != kNoPeer) {
    if (const auto it = link_faults_.find(peer);
        it != link_faults_.end() && it->second.partitioned) {
      Lane& lane = lanes_[static_cast<size_t>(src)];
      lane.held.push_back({peer, dst_shard, std::move(fn)});
      ++lane.deferred;
      return;
    }
  }
  DeliverHop(src, peer, dst_shard, std::move(fn));
}

void Network::SetLinkDelayMultiplier(int peer, double multiplier) {
  if (peer < 0) {
    fabric_delay_multiplier_ = multiplier;
    return;
  }
  link_faults_[peer].delay_multiplier = multiplier;
}

void Network::SetLinkDropProbability(int peer, double probability) {
  if (peer < 0) {
    fabric_drop_probability_ = probability;
    return;
  }
  link_faults_[peer].drop_probability = probability;
}

void Network::SetLinkPartitioned(int peer, bool partitioned) {
  LinkFault& fault = link_faults_[peer];
  if (fault.partitioned == partitioned) {
    return;
  }
  fault.partitioned = partitioned;
  if (partitioned) {
    return;
  }
  // Heal: flush held messages in (source lane, arrival) order, each over a
  // fresh hop sampled from its own lane. Runs quiesced in sharded mode, so
  // the flush order — and therefore every downstream event seq — is a pure
  // function of the simulation.
  for (Lane& lane : lanes_) {
    size_t kept = 0;
    const int src = static_cast<int>(&lane - lanes_.data());
    for (size_t i = 0; i < lane.held.size(); ++i) {
      HeldMsg& msg = lane.held[i];
      if (msg.peer != peer) {
        lane.held[kept++] = std::move(msg);  // Still partitioned elsewhere.
        continue;
      }
      DeliverHop(src, peer, msg.dst_shard, std::move(msg.fn));
    }
    lane.held.resize(kept);
  }
}

bool Network::LinkPartitioned(int peer) const {
  const auto it = link_faults_.find(peer);
  return it != link_faults_.end() && it->second.partitioned;
}

uint64_t Network::messages_delivered() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.delivered;
  }
  return total;
}

uint64_t Network::messages_dropped() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.dropped;
  }
  return total;
}

uint64_t Network::messages_deferred() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.deferred;
  }
  return total;
}

}  // namespace mitt::cluster
