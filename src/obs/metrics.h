// Named counters, gauges, and histograms with node labels.
//
// Experiments and benches read these instead of threading ad-hoc local
// counters through every layer: the OS increments `ebusy_total`,
// `cache_hit_total`, `deadline_miss_total`; the schedulers keep
// `predictor_accept_total`/`predictor_reject_total` and the `queue_depth`
// gauge. A metric is identified by (name, node); node -1 means "no node
// label" (client-side or single-machine setups).
//
// Determinism: metrics live in std::map keyed by (name, node), so iteration
// order — and therefore every printed table — is independent of insertion
// order. Each trial owns its own registry (attached to its Simulator), so
// parallel trial runs stay bit-identical.
//
// Cost: lookup is a map probe on (string_view, node) that allocates only
// when it creates the metric, so a layer may look a counter up by name on
// every event. Layers on the hottest paths (Os, the schedulers) resolve
// their handles once and record through the cached pointers — std::map node
// addresses are stable — which makes a record one add. With
// MITT_OBS_DISABLED, Simulator::metrics() is constant null and every site
// folds away.

#ifndef MITTOS_OBS_METRICS_H_
#define MITTOS_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/latency_recorder.h"
#include "src/obs/gate.h"

namespace mitt::obs {

class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  struct Key {
    std::string name;
    int node = -1;
  };
  // Orders Keys by (name, node), and lets a (string_view, node) pair probe
  // the maps without building a Key.
  struct KeyLess {
    using is_transparent = void;
    using View = std::pair<std::string_view, int>;
    static View view(const Key& k) { return {k.name, k.node}; }
    static View view(const View& v) { return v; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return view(a) < view(b);
    }
  };
  template <typename Metric>
  using Map = std::map<Key, Metric, KeyLess>;

  // Find-or-create. References are stable for the registry's lifetime.
  Counter& counter(std::string_view name, int node = -1);
  Gauge& gauge(std::string_view name, int node = -1);
  LatencyRecorder& histogram(std::string_view name, int node = -1);

  // Read-side lookups; missing metrics read as zero/empty.
  uint64_t CounterValue(std::string_view name, int node = -1) const;
  uint64_t CounterTotal(std::string_view name) const;  // Summed over nodes.
  double GaugeValue(std::string_view name, int node = -1) const;

  const Map<Counter>& counters() const { return counters_; }
  const Map<Gauge>& gauges() const { return gauges_; }
  const Map<LatencyRecorder>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Folds `other` into this registry: counters and gauges add, histograms
  // append samples. Sharded harvests merge per-shard registries in shard
  // order; map keying keeps the result independent of merge interleaving.
  void MergeFrom(const MetricsRegistry& other);

  void Clear();

 private:
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<LatencyRecorder> histograms_;
};

// Prints every counter and gauge as a (metric, node, value) table, one row
// per labeled instance plus a summed "all" row for multi-node counters.
void PrintMetricsTable(const MetricsRegistry& metrics);

}  // namespace mitt::obs

#endif  // MITTOS_OBS_METRICS_H_
