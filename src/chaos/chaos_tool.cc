// chaos_tool — the chaos-search command line (DESIGN.md §4j).
//
//   chaos_tool search [--trials N] [--seed S] [--budget-ms MS] [--inject-bug]
//                     [--tenants] [--out-dir DIR] [--json FILE] [--expect-find]
//       Coverage-guided search. Writes each finding's minimized reproducer to
//       DIR/<oracle>.chaos (when --out-dir is given) and the machine-readable
//       report to FILE. --expect-find exits 1 when NO violation was found —
//       the CI mode that proves the planted bug stays findable. The summary
//       line ends with the search's wall time and trials/s (shrink trials
//       included); the JSON report carries no host time.
//
//   chaos_tool replay FILE...
//       Re-executes each corpus file across the full worker grid
//       {trial 1,4} x {intra 1,2}. Exit 2 on any fingerprint mismatch
//       (determinism violation), exit 1 when an expected oracle does not
//       fire or an unexpected one does. Exit 0: every file reproduced
//       bit-identically and matched its expectations.
//
//   chaos_tool shrink FILE [--out FILE2] [--budget N]
//       Re-minimizes FILE's plan against its first expected oracle.
//
// Exit codes are the CI contract: 0 ok, 1 expectation failure, 2 determinism
// failure, 64 usage / IO error.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/explorer.h"
#include "src/chaos/shrinker.h"
#include "src/chaos/world.h"

namespace {

using namespace mitt;

int Usage() {
  std::fprintf(stderr,
               "usage: chaos_tool search [--trials N] [--seed S] [--budget-ms MS]\n"
               "                         [--inject-bug] [--tenants] [--out-dir DIR]\n"
               "                         [--json FILE] [--expect-find]\n"
               "       chaos_tool replay FILE...\n"
               "       chaos_tool shrink FILE [--out FILE2] [--budget N]\n");
  return 64;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return false;
  }
  f << content;
  f.flush();
  return static_cast<bool>(f);
}

int RunSearchCmd(int argc, char** argv) {
  chaos::ExplorerOptions opt;
  std::string out_dir;
  std::string json_path;
  bool expect_find = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--trials") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opt.max_trials = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opt.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--budget-ms") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opt.time_budget_ms = std::atoll(v);
    } else if (arg == "--inject-bug") {
      opt.world.inject_bug = true;
    } else if (arg == "--tenants") {
      opt.world.tenants = true;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      json_path = v;
    } else if (arg == "--expect-find") {
      expect_find = true;
    } else {
      return Usage();
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const chaos::SearchReport report = chaos::RunSearch(opt);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const int total_trials = report.trials + report.shrink_trials;
  std::printf(
      "chaos search: %d trials (+%d shrink), corpus=%zu, features=%zu, findings=%zu, "
      "wall=%.2f s (%.1f trials/s)\n",
      report.trials, report.shrink_trials, report.corpus_size, report.coverage_features,
      report.findings.size(), secs, secs > 0 ? total_trials / secs : 0.0);
  for (const chaos::Finding& f : report.findings) {
    std::printf("  [%s] %s: %s\n    plan %zu episodes -> shrunk %zu (in %d shrink trials)\n",
                f.oracle.c_str(), f.strategy.c_str(), f.detail.c_str(), f.plan.size(),
                f.shrunk.size(), f.shrink_trials);
    if (!out_dir.empty()) {
      chaos::CorpusEntry entry;
      entry.world = opt.world;
      entry.plan = f.shrunk;
      entry.expect = {f.oracle};
      entry.note = "minimized by chaos_tool search (found at trial " +
                   std::to_string(f.found_at_trial) + ")";
      const std::string path = out_dir + "/" + f.oracle + ".chaos";
      std::string error;
      if (!chaos::SaveCorpusEntry(path, entry, &error)) {
        std::fprintf(stderr, "chaos_tool: %s\n", error.c_str());
        return 64;
      }
      std::printf("    wrote %s\n", path.c_str());
    }
  }
  if (!json_path.empty() && !WriteFile(json_path, report.ToJson())) {
    std::fprintf(stderr, "chaos_tool: cannot write %s\n", json_path.c_str());
    return 64;
  }
  if (expect_find && report.findings.empty()) {
    std::fprintf(stderr, "chaos_tool: --expect-find: no violation found\n");
    return 1;
  }
  return 0;
}

// Grid replay of one corpus entry. Returns 0/1/2 per the exit-code contract.
int ReplayEntry(const std::string& path, const chaos::CorpusEntry& entry) {
  std::vector<std::string> drift;
  const std::vector<chaos::Violation> violations =
      chaos::RunChaosTrialOnGrid(entry.world, entry.plan, &drift).violations;
  if (!drift.empty()) {
    std::fprintf(stderr, "%s: DETERMINISM: fingerprint differs at %s\n", path.c_str(),
                 drift.front().c_str());
    return 2;
  }

  int rc = 0;
  for (const std::string& expected : entry.expect) {
    bool fired = false;
    for (const chaos::Violation& v : violations) {
      if (v.oracle == expected) {
        fired = true;
        break;
      }
    }
    if (!fired) {
      std::fprintf(stderr, "%s: expected oracle '%s' did not fire\n", path.c_str(),
                   expected.c_str());
      rc = 1;
    }
  }
  for (const chaos::Violation& v : violations) {
    bool expected = false;
    for (const std::string& e : entry.expect) {
      if (e == v.oracle) {
        expected = true;
        break;
      }
    }
    if (!expected) {
      std::fprintf(stderr, "%s: unexpected violation [%s] %s: %s\n", path.c_str(),
                   v.oracle.c_str(), v.strategy.c_str(), v.detail.c_str());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("%s: ok (%zu episodes, %zu expected oracle(s), grid bit-identical)\n",
                path.c_str(), entry.plan.size(), entry.expect.size());
  }
  return rc;
}

int RunReplayCmd(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  int rc = 0;
  for (int i = 0; i < argc; ++i) {
    chaos::CorpusEntry entry;
    std::string error;
    if (!chaos::LoadCorpusEntry(argv[i], &entry, &error)) {
      std::fprintf(stderr, "chaos_tool: %s\n", error.c_str());
      return 64;
    }
    const int entry_rc = ReplayEntry(argv[i], entry);
    if (entry_rc > rc) {
      rc = entry_rc;
    }
  }
  return rc;
}

int RunShrinkCmd(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  const std::string in_path = argv[0];
  std::string out_path = in_path;
  chaos::ShrinkOptions sopt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_path = v;
    } else if (arg == "--budget") {
      const char* v = next();
      if (v == nullptr) return Usage();
      sopt.max_trials = std::atoi(v);
    } else {
      return Usage();
    }
  }
  chaos::CorpusEntry entry;
  std::string error;
  if (!chaos::LoadCorpusEntry(in_path, &entry, &error)) {
    std::fprintf(stderr, "chaos_tool: %s\n", error.c_str());
    return 64;
  }
  if (entry.expect.empty()) {
    std::fprintf(stderr, "chaos_tool: %s has no 'expect' line to shrink against\n",
                 in_path.c_str());
    return 64;
  }
  const chaos::ShrinkResult result =
      chaos::ShrinkPlan(entry.world, entry.plan, entry.expect.front(), sopt);
  if (!result.reproduced) {
    std::fprintf(stderr, "chaos_tool: oracle '%s' did not fire on %s — nothing to shrink\n",
                 entry.expect.front().c_str(), in_path.c_str());
    return 1;
  }
  std::printf("shrink: %zu -> %zu episodes in %d trials\n", entry.plan.size(),
              result.plan.size(), result.trials_used);
  entry.plan = result.plan;
  if (!chaos::SaveCorpusEntry(out_path, entry, &error)) {
    std::fprintf(stderr, "chaos_tool: %s\n", error.c_str());
    return 64;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  if (cmd == "search") {
    return RunSearchCmd(argc - 2, argv + 2);
  }
  if (cmd == "replay") {
    return RunReplayCmd(argc - 2, argv + 2);
  }
  if (cmd == "shrink") {
    return RunShrinkCmd(argc - 2, argv + 2);
  }
  return Usage();
}
