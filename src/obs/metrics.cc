#include "src/obs/metrics.h"

#include "src/common/table.h"

namespace mitt::obs {
namespace {

// Find-or-create: the name is copied only when the metric is created.
template <typename Metric>
Metric& FindOrCreate(MetricsRegistry::Map<Metric>& map, std::string_view name, int node) {
  auto it = map.find(MetricsRegistry::KeyLess::View{name, node});
  if (it == map.end()) {
    it = map.emplace(MetricsRegistry::Key{std::string(name), node}, Metric{}).first;
  }
  return it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, int node) {
  return FindOrCreate(counters_, name, node);
}

Gauge& MetricsRegistry::gauge(std::string_view name, int node) {
  return FindOrCreate(gauges_, name, node);
}

LatencyRecorder& MetricsRegistry::histogram(std::string_view name, int node) {
  return FindOrCreate(histograms_, name, node);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name, int node) const {
  const auto it = counters_.find(KeyLess::View{name, node});
  return it == counters_.end() ? 0 : it->second.value();
}

uint64_t MetricsRegistry::CounterTotal(std::string_view name) const {
  uint64_t total = 0;
  for (const auto& [key, counter] : counters_) {
    if (key.name == name) {
      total += counter.value();
    }
  }
  return total;
}

double MetricsRegistry::GaugeValue(std::string_view name, int node) const {
  const auto it = gauges_.find(KeyLess::View{name, node});
  return it == gauges_.end() ? 0.0 : it->second.value();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [key, src] : other.counters_) {
    counters_[key].Add(src.value());
  }
  for (const auto& [key, src] : other.gauges_) {
    gauges_[key].Add(src.value());
  }
  for (const auto& [key, src] : other.histograms_) {
    histograms_[key].MergeFrom(src);
  }
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void PrintMetricsTable(const MetricsRegistry& metrics) {
  Table table({"metric", "node", "value"});
  std::string prev_name;
  uint64_t run_total = 0;
  int run_rows = 0;
  auto flush_total = [&] {
    if (run_rows > 1) {
      table.AddRow({prev_name, "all", std::to_string(run_total)});
    }
    run_total = 0;
    run_rows = 0;
  };
  for (const auto& [key, counter] : metrics.counters()) {
    if (key.name != prev_name) {
      flush_total();
      prev_name = key.name;
    }
    table.AddRow({key.name, key.node < 0 ? "-" : std::to_string(key.node),
                  std::to_string(counter.value())});
    run_total += counter.value();
    ++run_rows;
  }
  flush_total();
  for (const auto& [key, gauge] : metrics.gauges()) {
    table.AddRow({key.name, key.node < 0 ? "-" : std::to_string(key.node),
                  Table::Num(gauge.value(), 2)});
  }
  table.Print();
}

}  // namespace mitt::obs
