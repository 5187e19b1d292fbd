// The benchmark's workloads. Each one builds what its timed loop needs in
// Setup(), then Measure() runs that loop for the requested wall time,
// checks the program's outputs and fills the report.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "report.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics plus a Chrome trace instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Scratch directory for snapshots and the trace file.
  std::string out_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything a user pays before the first operation; timed as setup_s.
  virtual kernelgpt::util::Status Setup() = 0;

  /// Runs operations until `args.seconds` of wall time have passed.
  /// Untraced runs report the end-to-end metrics except setup_s and
  /// peak_rss_mb; traced runs report every per-layer metric.
  virtual void Measure(Report* report) = 0;
};

/// "specgen": repeated full-corpus spec-generation passes.
std::unique_ptr<Workload> MakeSpecgenWorkload(const Args& args);

/// "session_campaign" / "session_probe": fuzzing Session rounds; nullptr
/// for any other name.
std::unique_ptr<Workload> MakeSessionWorkload(const Args& args);

/// Sets every per-layer metric to 0 with its unit, in report order. A
/// traced run starts from this, so it reports each metric, 0 for a layer
/// its workload does not run.
void InitLayerMetrics(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
