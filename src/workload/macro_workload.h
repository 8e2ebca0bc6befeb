// Macrobenchmark noise tenants (§7.8.1): filebench-style fileserver, varmail
// and webserver personalities, plus a Hadoop-like batch tenant modeled on the
// Facebook 2010 job mix (periodic heavy sequential scans with heavy-tailed
// inter-job gaps). These colocate with DocStore nodes and generate realistic
// mixed read/write contention.

#ifndef MITTOS_WORKLOAD_MACRO_WORKLOAD_H_
#define MITTOS_WORKLOAD_MACRO_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <string_view>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace mitt::workload {

enum class MacroProfile { kFileserver, kVarmail, kWebserver, kHadoop };

std::string_view MacroProfileName(MacroProfile profile);

class MacroWorkload {
 public:
  struct Options {
    MacroProfile profile = MacroProfile::kFileserver;
    int threads = 4;
    int32_t pid = 8000;
    sched::IoClass io_class = sched::IoClass::kBestEffort;
    int8_t priority = 4;
  };

  MacroWorkload(sim::Simulator* sim, os::Os* target_os, uint64_t file, int64_t file_size,
                const Options& options, uint64_t seed);

  // Runs closed-loop tenant threads until `until` (simulated time).
  void Start(TimeNs until);

  uint64_t ios_issued() const { return ios_issued_; }

 private:
  // One Hadoop thread: the scan its current job runs, one chunk read at a
  // time.
  struct HadoopThread {
    TimeNs until = 0;
    int chunks = 0;
    int next_chunk = 0;
    int64_t start = 0;
  };

  void ThreadLoop(TimeNs until);
  void HadoopJobLoop(HadoopThread* thread);
  void HadoopScanStep(HadoopThread* thread);
  void IssueOne(TimeNs until);

  sim::Simulator* sim_;
  os::Os* os_;
  uint64_t file_;
  int64_t file_size_;
  Options options_;
  Rng rng_;
  uint64_t ios_issued_ = 0;
  std::deque<HadoopThread> hadoop_threads_;  // Stable addresses across Starts.
};

}  // namespace mitt::workload

#endif  // MITTOS_WORKLOAD_MACRO_WORKLOAD_H_
