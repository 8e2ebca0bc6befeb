// src/trace/ suite: on-disk format round-trips, reader validation, the CSV
// importer's transforms, the synthetic-cursor unification, the replay
// driver's sharding contract, and replay through the full Experiment stack
// (including scorecard bit-identity across the worker grid).
//
// The checked-in sample trace (tests/data/, path injected via
// MITT_TEST_DATA_DIR) stands in for a real MSR/SNIA download — CI has no
// network.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/scenario_runner.h"
#include "src/sim/simulator.h"
#include "src/trace/cursor.h"
#include "src/trace/import.h"
#include "src/trace/replay.h"
#include "src/trace/writer.h"
#include "src/workload/synthetic_trace.h"

namespace mitt {
namespace {

// Prefixed with the running test's name: ctest runs every case as its own
// process, in parallel, and the TraceValidationTest cases share file names.
std::string TempPath(const std::string& name) {
  const testing::TestInfo* test = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "trace_test_" + test->name() + "_" + name;
}

std::string SampleTracePath() { return std::string(MITT_TEST_DATA_DIR) + "/sample_mix.mitttrace"; }

// Writes `events` to a fresh trace at `path`; returns false on any failure.
bool WriteTrace(const std::string& path, const std::vector<trace::TraceEvent>& events,
                uint32_t block_records) {
  trace::TraceWriter::Options opt;
  opt.block_records = block_records;
  std::string error;
  auto writer = trace::TraceWriter::Open(path, opt, &error);
  if (writer == nullptr) {
    return false;
  }
  for (const trace::TraceEvent& e : events) {
    if (!writer->Append(e)) {
      return false;
    }
  }
  return writer->Finish();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A deterministic multi-block event sequence: 5 streams, mixed ops, varied
// sizes, µs-aligned arrivals.
std::vector<trace::TraceEvent> MakeEvents(size_t n) {
  std::vector<trace::TraceEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace::TraceEvent e;
    e.at = static_cast<TimeNs>(i) * Micros(7);
    e.offset = static_cast<int64_t>((i * 37) % 1024) * 4096;
    e.len = (i % 3 == 0) ? 4096u : (i % 3 == 1) ? 8192u : 65536u;
    e.op = (i % 4 == 0) ? trace::kOpWrite : trace::kOpRead;
    e.stream = static_cast<uint32_t>(i % 5);
    events.push_back(e);
  }
  return events;
}

// --- Format round-trip ---

TEST(TraceFormatTest, RoundTripIsExactAcrossBlocks) {
  const std::string path = TempPath("roundtrip.mitttrace");
  const auto events = MakeEvents(1000);  // 64-record blocks -> 16 blocks, partial tail.
  ASSERT_TRUE(WriteTrace(path, events, /*block_records=*/64));

  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;
  EXPECT_EQ(cursor->header().record_count, events.size());
  EXPECT_EQ(cursor->header().num_blocks, (events.size() + 63) / 64);
  EXPECT_EQ(cursor->header().num_streams, 5u);

  trace::TraceEvent got;
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(cursor->Next(&got)) << "at record " << i;
    EXPECT_EQ(got.at, events[i].at);
    EXPECT_EQ(got.offset, events[i].offset);
    EXPECT_EQ(got.len, events[i].len);
    EXPECT_EQ(got.op, events[i].op);
    EXPECT_EQ(got.stream, events[i].stream);
  }
  EXPECT_FALSE(cursor->Next(&got));
  EXPECT_EQ(cursor->position(), events.size());

  // Seeking to time 0 replays the identical sequence.
  ASSERT_TRUE(cursor->SeekToTimeUs(0));
  EXPECT_EQ(cursor->position(), 0u);
  ASSERT_TRUE(cursor->Next(&got));
  EXPECT_EQ(got.at, events[0].at);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, SpanBytesDerivedFromLargestExtent) {
  const std::string path = TempPath("span.mitttrace");
  std::vector<trace::TraceEvent> events(2);
  events[0].at = 0;
  events[0].offset = 1 << 20;
  events[0].len = 4096;
  events[1].at = Micros(1);
  events[1].offset = 8 << 20;
  events[1].len = 8192;
  ASSERT_TRUE(WriteTrace(path, events, 16));

  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;
  EXPECT_EQ(cursor->header().span_bytes, (8 << 20) + 8192);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, SubMicrosecondArrivalsTruncate) {
  const std::string path = TempPath("quantize.mitttrace");
  std::vector<trace::TraceEvent> events(2);
  events[0].at = 999;   // ns -> 0 us on disk.
  events[1].at = 1500;  // ns -> 1 us on disk.
  ASSERT_TRUE(WriteTrace(path, events, 16));

  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;
  trace::TraceEvent got;
  ASSERT_TRUE(cursor->Next(&got));
  EXPECT_EQ(got.at, 0);
  ASSERT_TRUE(cursor->Next(&got));
  EXPECT_EQ(got.at, Micros(1));
  std::remove(path.c_str());
}

TEST(TraceFormatTest, WriterRejectsRegressingArrivals) {
  const std::string path = TempPath("regress.mitttrace");
  std::string error;
  auto writer = trace::TraceWriter::Open(path, {}, &error);
  ASSERT_NE(writer, nullptr) << error;
  trace::TraceEvent e;
  e.at = Micros(10);
  ASSERT_TRUE(writer->Append(e));
  e.at = Micros(9);
  EXPECT_FALSE(writer->Append(e));
  EXPECT_FALSE(writer->error().empty());
  EXPECT_FALSE(writer->Finish());  // The error latches.
  std::remove(path.c_str());
}

TEST(TraceFormatTest, WriterRejectsNegativeArrival) {
  const std::string path = TempPath("negative.mitttrace");
  std::string error;
  auto writer = trace::TraceWriter::Open(path, {}, &error);
  ASSERT_NE(writer, nullptr) << error;
  trace::TraceEvent e;
  e.at = -1;
  EXPECT_FALSE(writer->Append(e));
  EXPECT_FALSE(writer->error().empty());
  std::remove(path.c_str());
}

TEST(TraceFormatTest, SameArrivalTwiceIsAllowed) {
  const std::string path = TempPath("ties.mitttrace");
  std::vector<trace::TraceEvent> events(3);
  events[0].at = events[1].at = events[2].at = Micros(5);
  ASSERT_TRUE(WriteTrace(path, events, 16));
  std::remove(path.c_str());
}

// --- Reader validation: a damaged file must never yield records ---

class TraceValidationTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("valid.mitttrace");
    ASSERT_TRUE(WriteTrace(path_, MakeEvents(200), /*block_records=*/32));
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), trace::kHeaderBytes + trace::kFooterBytes);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(damaged_.c_str());
  }

  // Writes `bytes` to a sibling path and expects Open to reject it.
  void ExpectRejected(const std::string& bytes, const std::string& what) {
    damaged_ = TempPath("damaged.mitttrace");
    WriteFileBytes(damaged_, bytes);
    std::string error;
    auto cursor = trace::FileTraceCursor::Open(damaged_, &error);
    EXPECT_EQ(cursor, nullptr) << what;
    EXPECT_FALSE(error.empty()) << what;
  }

  std::string path_;
  std::string damaged_;
  std::string bytes_;
};

TEST_F(TraceValidationTest, RejectsMissingFile) {
  std::string error;
  EXPECT_EQ(trace::FileTraceCursor::Open(TempPath("nope.mitttrace"), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST_F(TraceValidationTest, RejectsBadMagic) {
  std::string bad = bytes_;
  bad[0] ^= 0x5A;
  ExpectRejected(bad, "bad magic");
}

TEST_F(TraceValidationTest, RejectsCorruptHeaderChecksum) {
  std::string bad = bytes_;
  bad[24] ^= 0x01;  // record_count field; the stored FNV no longer matches.
  ExpectRejected(bad, "corrupt header");
}

TEST_F(TraceValidationTest, RejectsTruncatedFile) {
  ExpectRejected(bytes_.substr(0, bytes_.size() - 10), "truncated");
}

TEST_F(TraceValidationTest, RejectsTrailingGarbage) {
  ExpectRejected(bytes_ + std::string(1, '\0'), "trailing garbage");
}

TEST_F(TraceValidationTest, RejectsCorruptIndex) {
  std::string bad = bytes_;
  // Flip a byte inside the index region (between payload end and footer).
  bad[bad.size() - trace::kFooterBytes - 4] ^= 0x01;
  ExpectRejected(bad, "corrupt index");
}

TEST_F(TraceValidationTest, RejectsTornUnfinishedFile) {
  // A writer that dies before Finish() leaves the zeroed placeholder header.
  const std::string torn = TempPath("torn.mitttrace");
  {
    std::string error;
    auto writer = trace::TraceWriter::Open(torn, {}, &error);
    ASSERT_NE(writer, nullptr) << error;
    trace::TraceEvent e;
    for (int i = 0; i < 50; ++i) {
      e.at = Micros(i);
      ASSERT_TRUE(writer->Append(e));
    }
    // No Finish(): destructor just closes the fd.
  }
  std::string error;
  EXPECT_EQ(trace::FileTraceCursor::Open(torn, &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(torn.c_str());
}

// --- Seek-by-time ---

TEST(TraceSeekTest, SeekMatchesLinearScan) {
  const std::string path = TempPath("seek.mitttrace");
  const auto events = MakeEvents(500);  // Arrivals every 7 us -> last at 3493 us.
  ASSERT_TRUE(WriteTrace(path, events, /*block_records=*/32));

  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;

  for (const uint64_t probe_us : {0ULL, 1ULL, 7ULL, 100ULL, 333ULL, 1750ULL, 3493ULL}) {
    // Reference: first event with arrival >= probe, by linear scan.
    size_t expect = 0;
    while (expect < events.size() && trace::ArrivalUs(events[expect].at) < probe_us) {
      ++expect;
    }
    ASSERT_LT(expect, events.size());

    ASSERT_TRUE(cursor->SeekToTimeUs(probe_us)) << "probe " << probe_us;
    trace::TraceEvent got;
    ASSERT_TRUE(cursor->Next(&got)) << "probe " << probe_us;
    EXPECT_EQ(got.at, events[expect].at) << "probe " << probe_us;
    EXPECT_EQ(got.offset, events[expect].offset) << "probe " << probe_us;
  }

  // Every event earlier than the probe -> cursor at end.
  EXPECT_FALSE(cursor->SeekToTimeUs(3494));
  trace::TraceEvent got;
  EXPECT_FALSE(cursor->Next(&got));

  // The cursor still works after a failed seek.
  ASSERT_TRUE(cursor->SeekToTimeUs(0));
  ASSERT_TRUE(cursor->Next(&got));
  EXPECT_EQ(got.at, events[0].at);
  std::remove(path.c_str());
}

// --- Synthetic cursor unification ---

TEST(SyntheticCursorTest, ResetReplaysIdenticalSequence) {
  // A cursor runs forward once; a second cursor with the same profile,
  // duration and seed replays the identical sequence, and the ctor's stream
  // id tags every event.
  const auto& profile = workload::PaperTraceProfiles()[2];
  workload::SyntheticTraceCursor cursor(profile, Seconds(2), /*seed=*/7, /*stream=*/3);

  std::vector<trace::TraceEvent> first;
  trace::TraceEvent got;
  while (cursor.Next(&got)) {
    EXPECT_EQ(got.stream, 3u);
    first.push_back(got);
  }
  ASSERT_FALSE(first.empty());
  EXPECT_FALSE(cursor.Next(&got));

  workload::SyntheticTraceCursor again(profile, Seconds(2), /*seed=*/7, /*stream=*/3);
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(again.Next(&got)) << "at record " << i;
    EXPECT_EQ(got.at, first[i].at);
    EXPECT_EQ(got.offset, first[i].offset);
    EXPECT_EQ(got.len, first[i].len);
    EXPECT_EQ(got.op, first[i].op);
  }
  EXPECT_FALSE(again.Next(&got));
}

// --- CSV importer ---

// Imports `csv` through a temp trace and returns the decoded events.
std::vector<trace::TraceEvent> ImportToEvents(const std::string& csv,
                                              const trace::CsvImportOptions& opt,
                                              trace::ImportStats* stats) {
  const std::string path = TempPath("import.mitttrace");
  std::string error;
  trace::TraceWriter::Options wopt;
  wopt.span_bytes = opt.remap_span_bytes;
  auto writer = trace::TraceWriter::Open(path, wopt, &error);
  EXPECT_NE(writer, nullptr) << error;
  std::istringstream in(csv);
  EXPECT_TRUE(trace::ImportBlockCsv(in, writer.get(), opt, stats, &error)) << error;
  EXPECT_TRUE(writer->Finish()) << writer->error();

  std::vector<trace::TraceEvent> events;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  EXPECT_NE(cursor, nullptr) << error;
  if (cursor != nullptr) {
    trace::TraceEvent e;
    while (cursor->Next(&e)) {
      events.push_back(e);
    }
  }
  std::remove(path.c_str());
  return events;
}

TEST(CsvImportTest, FiletimeTicksDetectedAndRebased) {
  // Two MSR-style lines 2e6 ticks (= 0.2 s) apart.
  const std::string csv =
      "128166372000000000,usr,0,Read,383496192,32768,1331\n"
      "128166372002000000,usr,0,Write,4096,4096,900\n";
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, {}, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 0);
  EXPECT_EQ(events[1].at, Micros(200000));
  EXPECT_EQ(stats.span_us, 200000u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(events[0].op, trace::kOpRead);
  EXPECT_EQ(events[1].op, trace::kOpWrite);
  EXPECT_EQ(events[0].len, 32768u);
}

TEST(CsvImportTest, FractionalSecondsDetected) {
  const std::string csv =
      "0.5,host,0,Read,0,4096,10\n"
      "1.25,host,0,Read,4096,4096,10\n";
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, {}, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 0);
  EXPECT_EQ(events[1].at, Micros(750000));
}

TEST(CsvImportTest, RateScaleCompressesArrivals) {
  const std::string csv =
      "0.0,h,0,Read,0,4096,1\n"
      "1.0,h,0,Read,0,4096,1\n";
  trace::CsvImportOptions opt;
  opt.rate_scale = 4.0;
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, opt, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].at, Micros(250000));
}

TEST(CsvImportTest, RemapFoldsOffsetsOntoSpan) {
  const int64_t span = 1 << 20;
  const std::string csv = "0.0,h,0,Read," + std::to_string(5 * span + 123) + ",4096,1\n";
  trace::CsvImportOptions opt;
  opt.remap_span_bytes = span;
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, opt, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].offset, 123);
}

TEST(CsvImportTest, StreamsMapInFirstAppearanceOrder) {
  const std::string csv =
      "0.0,usr,0,Read,0,4096,1\n"
      "0.1,usr,1,Read,0,4096,1\n"
      "0.2,srv,0,Read,0,4096,1\n"
      "0.3,usr,0,Read,0,4096,1\n";  // Back to the first pair.
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, {}, &stats);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].stream, 0u);
  EXPECT_EQ(events[1].stream, 1u);
  EXPECT_EQ(events[2].stream, 2u);
  EXPECT_EQ(events[3].stream, 0u);
  EXPECT_EQ(stats.streams, 3u);
}

TEST(CsvImportTest, MalformedLinesSkippedNotFatal) {
  const std::string csv =
      "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"  // Header.
      "0.0,h,0,Read,0,4096,1\n"
      "garbage line\n"
      "0.5,h,0,Flush,0,4096,1\n"  // Unknown op.
      "1.0,h,0,Write,0,4096,1\n";
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, {}, &stats);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(stats.imported, 2u);
  EXPECT_EQ(stats.skipped_malformed, 3u);
}

TEST(CsvImportTest, UnsortedArrivalsClampedToMonotone) {
  const std::string csv =
      "0.0,h,0,Read,0,4096,1\n"
      "1.0,h,0,Read,0,4096,1\n"
      "0.5,h,0,Read,0,4096,1\n"  // Regresses mid-trace -> clamped to 1.0s.
      "2.0,h,0,Read,0,4096,1\n";
  trace::ImportStats stats;
  const auto events = ImportToEvents(csv, {}, &stats);
  ASSERT_EQ(events.size(), 4u);  // The output file validates, so it's monotone.
  EXPECT_EQ(stats.clamped_unsorted, 1u);
  EXPECT_EQ(events[2].at, events[1].at);
  EXPECT_EQ(events[3].at, Micros(2000000));
}

TEST(CsvImportTest, AllMalformedInputFails) {
  const std::string path = TempPath("empty_import.mitttrace");
  std::string error;
  auto writer = trace::TraceWriter::Open(path, {}, &error);
  ASSERT_NE(writer, nullptr) << error;
  std::istringstream in("no records here\nstill none\n");
  trace::ImportStats stats;
  EXPECT_FALSE(trace::ImportBlockCsv(in, writer.get(), {}, &stats, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// --- Replay driver: sharding, warmup, open-loop timing ---

struct Dispatched {
  uint32_t stream = 0;
  bool measured = false;
  TimeNs when = 0;
};

TEST(ReplayDriverTest, ShardPartitionIsDisjointAndComplete) {
  const std::string path = TempPath("shards.mitttrace");
  const auto events = MakeEvents(120);  // Streams 0..4.
  ASSERT_TRUE(WriteTrace(path, events, 32));

  const int kShards = 3;
  sim::Simulator sim;
  std::vector<std::unique_ptr<trace::FileTraceCursor>> cursors;
  std::vector<std::unique_ptr<trace::TraceReplayDriver>> drivers;
  std::vector<std::map<uint64_t, Dispatched>> seen(kShards);
  for (int s = 0; s < kShards; ++s) {
    std::string error;
    cursors.push_back(trace::FileTraceCursor::Open(path, &error));
    ASSERT_NE(cursors.back(), nullptr) << error;
    trace::TraceReplayDriver::Options ropt;
    ropt.shard = s;
    ropt.num_shards = kShards;
    drivers.push_back(std::make_unique<trace::TraceReplayDriver>(
        &sim, cursors.back().get(), ropt,
        [&seen, s, &sim](const trace::TraceEvent& e, uint64_t global_index, bool measured) {
          seen[s][global_index] = {e.stream, measured, sim.Now()};
        }));
    drivers.back()->Start();
  }
  sim.RunUntilPredicate([&] {
    for (const auto& d : drivers) {
      if (!d->done()) {
        return false;
      }
    }
    return true;
  });

  // Every global index claimed exactly once, by the shard its stream maps to.
  std::set<uint64_t> all;
  uint64_t total = 0;
  for (int s = 0; s < kShards; ++s) {
    total += drivers[s]->dispatched();
    for (const auto& [index, d] : seen[s]) {
      EXPECT_EQ(d.stream % kShards, static_cast<uint32_t>(s));
      EXPECT_TRUE(all.insert(index).second) << "index " << index << " claimed twice";
    }
  }
  EXPECT_EQ(total, events.size());
  EXPECT_EQ(all.size(), events.size());
  std::remove(path.c_str());
}

TEST(ReplayDriverTest, GlobalIndexAndWarmupMatchUnshardedRun) {
  const std::string path = TempPath("warmup.mitttrace");
  ASSERT_TRUE(WriteTrace(path, MakeEvents(150), 32));

  // (global_index -> measured) must be a pure function of the trace, never
  // of the shard layout.
  auto run = [&](int num_shards) {
    std::map<uint64_t, bool> measured_by_index;
    sim::Simulator sim;
    std::vector<std::unique_ptr<trace::FileTraceCursor>> cursors;
    std::vector<std::unique_ptr<trace::TraceReplayDriver>> drivers;
    for (int s = 0; s < num_shards; ++s) {
      std::string error;
      cursors.push_back(trace::FileTraceCursor::Open(path, &error));
      EXPECT_NE(cursors.back(), nullptr) << error;
      trace::TraceReplayDriver::Options ropt;
      ropt.shard = s;
      ropt.num_shards = num_shards;
      ropt.warmup_events = 60;
      drivers.push_back(std::make_unique<trace::TraceReplayDriver>(
          &sim, cursors.back().get(), ropt,
          [&measured_by_index](const trace::TraceEvent&, uint64_t global_index, bool measured) {
            measured_by_index[global_index] = measured;
          }));
      drivers.back()->Start();
    }
    sim.RunUntilPredicate([&] {
      for (const auto& d : drivers) {
        if (!d->done()) {
          return false;
        }
      }
      return true;
    });
    return measured_by_index;
  };

  const auto unsharded = run(1);
  const auto sharded = run(3);
  ASSERT_EQ(unsharded.size(), 150u);
  EXPECT_EQ(unsharded, sharded);
  // The split itself: first 60 global records unmeasured, rest measured.
  for (const auto& [index, measured] : unsharded) {
    EXPECT_EQ(measured, index >= 60) << "index " << index;
  }
  std::remove(path.c_str());
}

TEST(ReplayDriverTest, MaxEventsIsAGlobalCount) {
  const std::string path = TempPath("maxevents.mitttrace");
  ASSERT_TRUE(WriteTrace(path, MakeEvents(100), 32));

  const int kShards = 2;
  sim::Simulator sim;
  std::vector<std::unique_ptr<trace::FileTraceCursor>> cursors;
  std::vector<std::unique_ptr<trace::TraceReplayDriver>> drivers;
  std::set<uint64_t> indices;
  for (int s = 0; s < kShards; ++s) {
    std::string error;
    cursors.push_back(trace::FileTraceCursor::Open(path, &error));
    ASSERT_NE(cursors.back(), nullptr) << error;
    trace::TraceReplayDriver::Options ropt;
    ropt.shard = s;
    ropt.num_shards = kShards;
    ropt.max_events = 30;
    drivers.push_back(std::make_unique<trace::TraceReplayDriver>(
        &sim, cursors.back().get(), ropt,
        [&indices](const trace::TraceEvent&, uint64_t global_index, bool) {
          indices.insert(global_index);
        }));
    drivers.back()->Start();
  }
  sim.RunUntilPredicate(
      [&] { return drivers[0]->done() && drivers[1]->done(); });

  // The first 30 global records, each exactly once — across both shards.
  EXPECT_EQ(indices.size(), 30u);
  EXPECT_EQ(drivers[0]->dispatched() + drivers[1]->dispatched(), 30u);
  for (const uint64_t index : indices) {
    EXPECT_LT(index, 30u);
  }
  std::remove(path.c_str());
}

TEST(ReplayDriverTest, RateScaleCompressesDispatchTimes) {
  const std::string path = TempPath("ratescale.mitttrace");
  std::vector<trace::TraceEvent> events(2);
  events[0].at = Micros(1000);
  events[1].at = Micros(3000);
  ASSERT_TRUE(WriteTrace(path, events, 16));

  sim::Simulator sim;
  std::string error;
  auto cursor = trace::FileTraceCursor::Open(path, &error);
  ASSERT_NE(cursor, nullptr) << error;
  trace::TraceReplayDriver::Options ropt;
  ropt.rate_scale = 2.0;
  std::vector<TimeNs> fired;
  trace::TraceReplayDriver driver(
      &sim, cursor.get(), ropt,
      [&fired, &sim](const trace::TraceEvent&, uint64_t, bool) { fired.push_back(sim.Now()); });
  driver.Start();
  sim.RunUntilPredicate([&] { return driver.done(); });

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Micros(500));
  EXPECT_EQ(fired[1], Micros(1500));
  EXPECT_EQ(driver.reads_dispatched() + driver.writes_dispatched(), 2u);
  std::remove(path.c_str());
}

// --- Replay through the full Experiment stack ---

harness::ExperimentOptions SmallReplayWorld() {
  harness::ExperimentOptions opt;
  opt.num_nodes = 2;
  opt.num_clients = 0;
  opt.num_keys_per_node = 1 << 14;
  opt.backend = os::BackendKind::kSsd;
  opt.noise = harness::NoiseKind::kNone;
  opt.seed = 7;
  opt.replay.trace_path = SampleTracePath();
  opt.replay.max_events = 600;
  opt.replay.warmup_events = 100;
  return opt;
}

TEST(ExperimentReplayTest, SampleTraceDrivesOpenLoopGets) {
  harness::Experiment experiment(SmallReplayWorld());
  const harness::RunResult result = experiment.Run(harness::StrategyKind::kMittos);
  EXPECT_EQ(result.replay_events, 600u);
  EXPECT_EQ(result.replay_trace_reads + result.replay_trace_writes, 600u);
  EXPECT_GT(result.replay_trace_reads, 0u);
  EXPECT_GT(result.replay_trace_writes, 0u);
  EXPECT_EQ(result.requests, 600u);  // One Get completion per arrival.
  // Exactly the post-warmup events are measured.
  EXPECT_EQ(result.get_latencies.count(), 500u);
  EXPECT_EQ(result.user_latencies.count(), 500u);
  EXPECT_GT(result.user_latencies.Percentile(50), 0);
}

TEST(ExperimentReplayTest, SyntheticProfileSourceWorks) {
  harness::ExperimentOptions opt = SmallReplayWorld();
  opt.replay.trace_path.clear();
  opt.replay.synthetic_profile = 0;
  opt.replay.synthetic_duration = Seconds(2);
  opt.replay.max_events = 300;
  opt.replay.warmup_events = 50;
  harness::Experiment experiment(opt);
  const harness::RunResult result = experiment.Run(harness::StrategyKind::kBase);
  EXPECT_EQ(result.replay_events, 300u);
  EXPECT_EQ(result.get_latencies.count(), 250u);
}

TEST(ExperimentReplayTest, MissingTraceThrows) {
  harness::ExperimentOptions opt = SmallReplayWorld();
  opt.replay.trace_path = TempPath("does_not_exist.mitttrace");
  harness::Experiment experiment(opt);
  EXPECT_THROW(experiment.Run(harness::StrategyKind::kBase), std::runtime_error);
}

TEST(ExperimentReplayTest, ReplayKeyForIsDeterministicAndInRange) {
  const uint64_t keyspace = 1 << 18;
  const uint64_t a = harness::Experiment::ReplayKeyFor(4096 * 17, 2, keyspace);
  EXPECT_EQ(a, harness::Experiment::ReplayKeyFor(4096 * 17, 2, keyspace));
  EXPECT_LT(a, keyspace);
  // Sequential 4 KB offsets in one stream stay sequential in key space.
  const uint64_t b = harness::Experiment::ReplayKeyFor(4096 * 18, 2, keyspace);
  EXPECT_EQ(b, (a + 1) % keyspace);
  // Streams displace each other.
  EXPECT_NE(a, harness::Experiment::ReplayKeyFor(4096 * 17, 3, keyspace));
}

// The CI-facing contract: identical replay scorecards at every point of the
// {trial workers} x {intra workers} grid. Mirrors bench_replay part 3 at
// test-sized event counts; num_shards=2 keeps the conservative-PDES path in
// play.
TEST(ExperimentReplayTest, ScorecardBitIdenticalAcrossWorkerGrid) {
  harness::ScenarioRunner::Options opt;
  opt.base = SmallReplayWorld();
  opt.base.seed = 20170919;
  opt.base.num_nodes = 4;
  opt.base.num_shards = 2;
  opt.base.replay.max_events = 800;
  opt.base.replay.warmup_events = 80;
  opt.strategies = {harness::StrategyKind::kBase, harness::StrategyKind::kMittos};
  harness::ScenarioRunner runner(opt);
  std::vector<std::string> drift;
  runner.Run({{"healthy", {}, {}}}, &drift);
  EXPECT_EQ(drift, std::vector<std::string>{});
  ASSERT_EQ(runner.results().size(), 2u);
  EXPECT_EQ(runner.results()[0].replay_events, 800u);
}

}  // namespace
}  // namespace mitt
