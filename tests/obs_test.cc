#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/gate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mitt::obs {
namespace {

SpanRecord Span(uint64_t id, SpanKind kind, TimeNs begin, TimeNs end, int32_t node = 0) {
  SpanRecord s;
  s.request_id = id;
  s.kind = kind;
  s.begin = begin;
  s.end = end;
  s.node = node;
  return s;
}

bool SameSpan(const SpanRecord& a, const SpanRecord& b) {
  return a.request_id == b.request_id && a.begin == b.begin && a.end == b.end &&
         a.node == b.node && a.kind == b.kind;
}

// --- Tracer ------------------------------------------------------------------

TEST(TracerTest, RequestIdsStartAtOne) {
  Tracer tracer;
  EXPECT_EQ(tracer.NewRequestId(), 1u);
  EXPECT_EQ(tracer.NewRequestId(), 2u);
  EXPECT_EQ(tracer.NewRequestId(), 3u);
}

TEST(TracerTest, RecordsInOrder) {
  Tracer tracer(8);
  tracer.RecordSpan(SpanKind::kSyscall, {1, 0}, 10, 100);
  tracer.RecordInstant(SpanKind::kEbusyReject, {1, 0}, 100);
  tracer.RecordSpan(SpanKind::kQueueWait, {0, 2}, 20, 30);
  ASSERT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto spans = tracer.OrderedSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_TRUE(SameSpan(spans[0], Span(1, SpanKind::kSyscall, 10, 100)));
  EXPECT_TRUE(SameSpan(spans[1], Span(1, SpanKind::kEbusyReject, 100, 100)));
  EXPECT_TRUE(SameSpan(spans[2], Span(0, SpanKind::kQueueWait, 20, 30, 2)));
}

TEST(TracerTest, RingDropsOldestWhenFull) {
  Tracer tracer(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (uint64_t i = 1; i <= 6; ++i) {
    tracer.RecordSpan(SpanKind::kSyscall, {i, 0}, static_cast<TimeNs>(i),
                      static_cast<TimeNs>(i + 1));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto spans = tracer.OrderedSpans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-to-newest, with the two oldest (ids 1, 2) overwritten.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].request_id, i + 3);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(8);
  tracer.set_enabled(false);
  tracer.RecordSpan(SpanKind::kSyscall, {1, 0}, 0, 10);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  tracer.set_enabled(true);
  tracer.RecordSpan(SpanKind::kSyscall, {1, 0}, 0, 10);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(TracerTest, ClearEmptiesTheRing) {
  Tracer tracer(4);
  for (uint64_t i = 1; i <= 5; ++i) {
    tracer.RecordSpan(SpanKind::kSyscall, {i, 0}, 0, 1);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.OrderedSpans().empty());
  // Refilling after Clear behaves like a fresh ring.
  tracer.RecordSpan(SpanKind::kSyscall, {9, 0}, 0, 1);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.OrderedSpans()[0].request_id, 9u);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateAndLookups) {
  MetricsRegistry metrics;
  Counter& a = metrics.counter("ebusy_total", 0);
  a.Add();
  a.Add(2);
  metrics.counter("ebusy_total", 1).Add(5);
  // Same (name, node) resolves to the same instance.
  EXPECT_EQ(&metrics.counter("ebusy_total", 0), &a);
  EXPECT_EQ(metrics.CounterValue("ebusy_total", 0), 3u);
  EXPECT_EQ(metrics.CounterValue("ebusy_total", 1), 5u);
  EXPECT_EQ(metrics.CounterTotal("ebusy_total"), 8u);
  // Missing metrics read as zero instead of materializing.
  EXPECT_EQ(metrics.CounterValue("ebusy_total", 7), 0u);
  EXPECT_EQ(metrics.CounterTotal("no_such_metric"), 0u);
  EXPECT_EQ(metrics.counters().size(), 2u);

  metrics.gauge("queue_depth", 0).Set(12.0);
  metrics.gauge("queue_depth", 0).Add(1.0);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("queue_depth", 0), 13.0);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("queue_depth", 3), 0.0);

  metrics.histogram("wait_ns", 0).Record(Millis(4));
  EXPECT_EQ(metrics.histograms().size(), 1u);
  EXPECT_FALSE(metrics.empty());
  metrics.Clear();
  EXPECT_TRUE(metrics.empty());
}

TEST(MetricsRegistryTest, IterationOrderIsSortedNotInsertion) {
  MetricsRegistry metrics;
  // Insert out of order; the map iterates sorted by (name, node) so printed
  // tables are independent of which layer touched its metric first.
  metrics.counter("zeta", 1).Add();
  metrics.counter("alpha", 2).Add();
  metrics.counter("alpha", 0).Add();
  std::vector<std::pair<std::string, int>> keys;
  for (const auto& [key, unused] : metrics.counters()) {
    keys.emplace_back(key.name, key.node);
  }
  const std::vector<std::pair<std::string, int>> want = {
      {"alpha", 0}, {"alpha", 2}, {"zeta", 1}};
  EXPECT_EQ(keys, want);
}

// --- Chrome trace export + JSON validator ------------------------------------

TEST(ChromeTraceJsonTest, EmitsValidJsonWithEventShapes) {
  std::vector<SpanRecord> spans;
  spans.push_back(Span(1, SpanKind::kSyscall, Micros(10), Micros(60), 0));
  spans.push_back(Span(1, SpanKind::kEbusyReject, Micros(60), Micros(60), 0));
  spans.push_back(Span(2, SpanKind::kQueueWait, Micros(5), Micros(25), 1));
  const std::string json = ChromeTraceJson(spans, "test");
  EXPECT_TRUE(ValidateJsonSyntax(json));
  // A duration event, an instant event, and per-node process metadata.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("test/node0"), std::string::npos);
  EXPECT_NE(json.find("test/node1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"syscall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ebusy_reject\""), std::string::npos);
}

TEST(ChromeTraceJsonTest, GroupsGetDistinctProcessBlocks) {
  TraceGroup a{"Base", {Span(1, SpanKind::kSyscall, 0, 100, 0)}};
  TraceGroup b{"MittOS", {Span(1, SpanKind::kSyscall, 0, 10, 0)}};
  const std::vector<TraceGroup> groups = {a, b};
  const std::string json = ChromeTraceJson(groups);
  EXPECT_TRUE(ValidateJsonSyntax(json));
  EXPECT_NE(json.find("Base/node0"), std::string::npos);
  EXPECT_NE(json.find("MittOS/node0"), std::string::npos);
  // Client-side spans (node -1) label as <group>/client.
  TraceGroup c{"Run", {Span(1, SpanKind::kFailover, 5, 5, -1)}};
  const std::vector<TraceGroup> client_only = {c};
  EXPECT_NE(ChromeTraceJson(client_only).find("Run/client"), std::string::npos);
}

TEST(ChromeTraceJsonTest, EmptyTraceIsStillValid) {
  const std::string json = ChromeTraceJson(std::vector<SpanRecord>{}, "empty");
  EXPECT_TRUE(ValidateJsonSyntax(json));
}

TEST(ChromeTraceJsonTest, HostileLabelsAreEscapedNotInjected) {
  // Labels flow in from scenario/strategy names; a quote or backslash must
  // not break (or rewrite) the exported document.
  // Note the literal splice: "\x01" "ctl", not "\x01ctl" — \x greedily eats
  // trailing hex digits, so the unspliced form is the single char 0x1c.
  const std::string hostile = "ev\"il\\label\n\twith\x01" "ctl";
  const std::string json =
      ChromeTraceJson({Span(1, SpanKind::kSyscall, 0, 10, 0)}, hostile);
  EXPECT_TRUE(ValidateJsonSyntax(json));
  EXPECT_NE(json.find("ev\\\"il\\\\label\\n\\twith\\u0001ctl/node0"), std::string::npos);
  // No raw quote survived inside the label (which would terminate the JSON
  // string early and smuggle in attacker-controlled keys).
  EXPECT_EQ(json.find("ev\"il"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Round trip through the validator when embedded as a string value.
  std::string quoted = "\"";
  quoted += JsonEscape("x\"\\\n\x02y");
  quoted += "\"";
  EXPECT_TRUE(ValidateJsonSyntax(quoted));
}

TEST(JsonValidatorTest, AcceptsWellFormed) {
  EXPECT_TRUE(ValidateJsonSyntax("{}"));
  EXPECT_TRUE(ValidateJsonSyntax("[1, 2.5, -3e2, \"x\", true, false, null]"));
  EXPECT_TRUE(ValidateJsonSyntax("{\"a\": {\"b\": [\"c\\\"d\"]}}"));
  EXPECT_TRUE(ValidateJsonSyntax("  42  "));
}

TEST(JsonValidatorTest, RejectsMalformed) {
  EXPECT_FALSE(ValidateJsonSyntax(""));
  EXPECT_FALSE(ValidateJsonSyntax("{"));
  EXPECT_FALSE(ValidateJsonSyntax("[1,]"));
  EXPECT_FALSE(ValidateJsonSyntax("{\"a\":}"));
  EXPECT_FALSE(ValidateJsonSyntax("{\"a\":1,}"));
  EXPECT_FALSE(ValidateJsonSyntax("{} trailing"));
  EXPECT_FALSE(ValidateJsonSyntax("\"unterminated"));
  EXPECT_FALSE(ValidateJsonSyntax("tru"));
  EXPECT_FALSE(ValidateJsonSyntax("{1: 2}"));
}

// --- Latency breakdown -------------------------------------------------------

TEST(BreakdownTest, ClassifiesOutcomesAndAttributesTime) {
  std::vector<SpanRecord> spans;
  // Request 1 — accepted device IO on node 0: 300ns queued, 500ns serviced,
  // 200ns of syscall overhead.
  spans.push_back(Span(1, SpanKind::kSyscall, 0, 1000, 0));
  spans.push_back(Span(1, SpanKind::kCacheLookup, 0, 0, 0));
  spans.push_back(Span(1, SpanKind::kQueueWait, 100, 400, 0));
  spans.push_back(Span(1, SpanKind::kDeviceService, 400, 900, 0));
  // Request 2 — cache hit: no queue/device time inside the syscall window.
  spans.push_back(Span(2, SpanKind::kSyscall, 0, 50, 0));
  spans.push_back(Span(2, SpanKind::kCacheLookup, 0, 0, 0));
  // Request 3 — rejected: the only syscall ends in EBUSY.
  spans.push_back(Span(3, SpanKind::kSyscall, 0, 10, 0));
  spans.push_back(Span(3, SpanKind::kEbusyReject, 10, 10, 0));
  // Request 4 — failed over: EBUSY on node 0, then success on node 1.
  spans.push_back(Span(4, SpanKind::kSyscall, 0, 10, 0));
  spans.push_back(Span(4, SpanKind::kEbusyReject, 10, 10, 0));
  spans.push_back(Span(4, SpanKind::kFailover, 15, 15, -1));
  spans.push_back(Span(4, SpanKind::kSyscall, 20, 1020, 1));
  spans.push_back(Span(4, SpanKind::kQueueWait, 30, 130, 1));
  spans.push_back(Span(4, SpanKind::kDeviceService, 130, 930, 1));
  // Untraced noise IO (request id 0) — counted, not attributed.
  spans.push_back(Span(0, SpanKind::kDeviceService, 0, 5000, 0));

  const LatencyBreakdown bd = ComputeLatencyBreakdown(spans);
  EXPECT_EQ(bd.untraced_spans, 1u);
  ASSERT_EQ(bd.rows.size(), 4u);
  // Rows come out in enum order: cache_hit, accepted, rejected, failed_over.
  ASSERT_EQ(bd.rows[0].outcome, RequestOutcome::kCacheHit);
  ASSERT_EQ(bd.rows[1].outcome, RequestOutcome::kAccepted);
  ASSERT_EQ(bd.rows[2].outcome, RequestOutcome::kRejected);
  ASSERT_EQ(bd.rows[3].outcome, RequestOutcome::kFailedOver);
  for (const BreakdownRow& row : bd.rows) {
    EXPECT_EQ(row.requests, 1u);
  }
  // Single-sample rows: Percentile(50) is the sample itself.
  EXPECT_EQ(bd.rows[0].end_to_end.Percentile(50), 50);
  EXPECT_EQ(bd.rows[0].syscall_overhead.Percentile(50), 50);
  EXPECT_EQ(bd.rows[1].queue_wait.Percentile(50), 300);
  EXPECT_EQ(bd.rows[1].device_service.Percentile(50), 500);
  EXPECT_EQ(bd.rows[1].syscall_overhead.Percentile(50), 200);
  EXPECT_EQ(bd.rows[1].end_to_end.Percentile(50), 1000);
  EXPECT_EQ(bd.rows[2].end_to_end.Percentile(50), 10);
  // Failed-over attribution covers the *successful* syscall only; the EBUSY
  // round trip is what the client already paid before failing over.
  EXPECT_EQ(bd.rows[3].queue_wait.Percentile(50), 100);
  EXPECT_EQ(bd.rows[3].device_service.Percentile(50), 800);
  EXPECT_EQ(bd.rows[3].syscall_overhead.Percentile(50), 100);
  EXPECT_EQ(bd.rows[3].end_to_end.Percentile(50), 1000);
}

TEST(BreakdownTest, SkipsRequestsWhoseSyscallWindowWasDropped) {
  // Only layer spans survive (the ring overwrote the syscall window): the
  // request cannot be attributed and must not show up as a row.
  std::vector<SpanRecord> spans;
  spans.push_back(Span(7, SpanKind::kQueueWait, 100, 400, 0));
  spans.push_back(Span(7, SpanKind::kDeviceService, 400, 900, 0));
  const LatencyBreakdown bd = ComputeLatencyBreakdown(spans);
  EXPECT_TRUE(bd.rows.empty());
  EXPECT_EQ(bd.untraced_spans, 0u);
}

// --- End-to-end: traced experiment runs --------------------------------------

harness::ExperimentOptions SmallTracedExperiment() {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 300;
  opt.warmup_requests = 30;
  opt.pin_primary_node = 0;
  opt.noise = harness::NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.deadline = Millis(20);
  opt.app_timeout = Millis(20);
  opt.hedge_delay = Millis(20);
  opt.trace = true;
  opt.seed = 7;
  return opt;
}

TEST(TracedRunTest, BreakdownAccountingIdentityHolds) {
  harness::Experiment exp(SmallTracedExperiment());
  const harness::RunResult run = exp.Run(harness::StrategyKind::kMittos);
#if MITT_OBS_ENABLED
  ASSERT_FALSE(run.trace_spans.empty());
  EXPECT_EQ(run.trace_dropped, 0u);
  const LatencyBreakdown bd = ComputeLatencyBreakdown(run.trace_spans);
  ASSERT_FALSE(bd.rows.empty());
  uint64_t attributed = 0;
  for (const BreakdownRow& row : bd.rows) {
    attributed += row.requests;
    // Per-sample identity: end_to_end == queue + device + overhead, so the
    // means (exact sums / n) must match to rounding error.
    const double parts = row.queue_wait.MeanNs() + row.device_service.MeanNs() +
                         row.syscall_overhead.MeanNs();
    EXPECT_NEAR(row.end_to_end.MeanNs(), parts, 1.0) << RequestOutcomeName(row.outcome);
  }
  EXPECT_GT(attributed, 0u);
  // The OS counted one EBUSY per rejection span the tracer saw.
  uint64_t reject_spans = 0;
  for (const SpanRecord& s : run.trace_spans) {
    if (s.kind == SpanKind::kEbusyReject) {
      ++reject_spans;
    }
  }
  EXPECT_EQ(run.metrics.CounterTotal("ebusy_total"), reject_spans);
  EXPECT_GT(reject_spans, 0u);  // The pinned noisy node must reject sometimes.
  // And the export of a real trace is valid JSON.
  EXPECT_TRUE(ValidateJsonSyntax(ChromeTraceJson(run.trace_spans, "mittos")));
#else
  EXPECT_TRUE(run.trace_spans.empty());
  EXPECT_TRUE(run.metrics.empty());
#endif
}

TEST(TracedRunTest, TraceBitIdenticalAcrossWorkerCounts) {
  const harness::ExperimentOptions opt = SmallTracedExperiment();
  const std::vector<harness::Trial> trials = {
      {opt, harness::StrategyKind::kBase, ""},
      {opt, harness::StrategyKind::kMittos, ""},
  };
  // Spans and metrics registries are part of every run's Fingerprint.
  const harness::GridRun grid = harness::RunOnWorkerGrid(trials);
  EXPECT_EQ(grid.drift, std::vector<std::string>{});
#if MITT_OBS_ENABLED
  for (const harness::RunResult& r : grid.results) {
    EXPECT_FALSE(r.trace_spans.empty()) << r.name;
    EXPECT_FALSE(r.metrics.counters().empty()) << r.name;
  }
#endif
}

}  // namespace
}  // namespace mitt::obs
