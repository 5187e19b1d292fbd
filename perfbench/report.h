// Measurement helpers and the result record every benchmark run prints.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Every duration the benchmark reports is wall time on this clock; CPU
/// time would hide waiting on worker threads.
using Clock = std::chrono::steady_clock;

inline double
MsSince(Clock::time_point start)
{
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linearly interpolated quantile `q` in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Bytes this process has passed to write(2) so far (`wchar` in
/// /proc/self/io); 0 where the kernel does not expose it.
double WrittenBytes();

/// The outcome of one run: named metrics with units, and the tally of
/// operations attempted and failed. A failed operation is a non-OK status
/// or a failed correctness check; any failure makes the run incorrect.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Counts one attempted operation; `ok == false` counts it as failed and
  /// prints `what` to stderr.
  void Attempt(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }

  /// One-line JSON object: correct, attempted, failed, metrics.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
