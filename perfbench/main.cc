// The benchmark driver: runs one workload and prints its result as one
// JSON line. See perfbench/README.md for the workloads and metrics;
// perfbench/run.py builds this program and is the command to run.
//
//   perfbench run   --workload W --seed N --seconds S --trace 0|1 --out DIR
//   perfbench setup --workload W --seed N
//
// `setup` only times the workload's set-up and prints {"setup_s": ...}, so
// the caller can take set-up samples from fresh processes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "report.h"
#include "util/fault.h"
#include "workload.h"

namespace perfbench {

void
InitLayerMetrics(Report* report)
{
  static const char* const kMetrics[][2] = {
      {"ksrc.build_index_ms", "ms"},
      {"drivers.render_ms", "ms"},
      {"ksrc.cparse_mb_per_s", "MB/s"},
      {"extractor.find_ms", "ms"},
      {"extractor.handlers", "count"},
      {"spec_gen.generate_ms", "ms"},
      {"spec_gen.handler_ms_p50", "ms"},
      {"spec_gen.handler_ms_p90", "ms"},
      {"llm.queries", "count"},
      {"llm.input_tokens", "count"},
      {"llm.output_tokens", "count"},
      {"spec_gen.valid", "count"},
      {"spec_gen.repaired", "count"},
      {"spec_gen.failed", "count"},
      {"spec_gen.usable_ratio", "ratio"},
      {"spec_library.build_ms", "ms"},
      {"drivers.boots_per_round", "count"},
      {"drivers.boot_ms_per_round", "ms"},
      {"drivers.boot_ms_p50", "ms"},
      {"orchestrator.campaign_ms", "ms"},
      {"generator.generate_us", "us"},
      {"mutator.mutate_us", "us"},
      {"executor.run_us", "us"},
      {"executor.calls_per_prog", "count"},
      {"coverage.delta_per_round", "count"},
      {"distiller.distill_ms", "ms"},
      {"distiller.replayed", "count"},
      {"distiller.minimize_execs", "count"},
      {"corpus.merged", "count"},
      {"corpus.distilled", "count"},
      {"distiller.keep_ratio", "ratio"},
      {"diff_runner.diff_ms", "ms"},
      {"diff_runner.programs", "count"},
      {"diff_runner.diverging_programs", "count"},
      {"diff_runner.divergences", "count"},
      {"snapshot.save_ms_p50", "ms"},
      {"snapshot.save_ms_p90", "ms"},
      {"snapshot.bytes_per_round", "bytes"},
      {"snapshot.resume_ms", "ms"},
      {"session.post_campaign_ms", "ms"},
      {"session.crash_titles", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kMetrics) report->Set(name, 0, unit);
}

}  // namespace perfbench

namespace {

using perfbench::Args;

int
Usage()
{
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       perfbench setup --workload W --seed N\n");
  return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode != "run" && mode != "setup") return Usage();
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (mode == "run" && args.out_dir.empty()) return Usage();

  // Fault plans from the environment let the smoke test force a failure
  // through the program's own fault points.
  kernelgpt::util::Status plan_error = kernelgpt::util::Status::Ok();
  kernelgpt::util::FaultInjector::Instance().ArmFromEnvIfPresent(&plan_error);
  if (!plan_error.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", plan_error.message().c_str());
    return 2;
  }

  std::unique_ptr<perfbench::Workload> workload =
      args.workload == "specgen" ? perfbench::MakeSpecgenWorkload(args)
                                 : perfbench::MakeSessionWorkload(args);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const kernelgpt::util::Status setup = workload->Setup();
  const double setup_s = perfbench::MsSince(process_start) / 1e3;
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 setup.message().c_str());
    return 1;
  }
  if (mode == "setup") {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  std::printf("build {\"compiler\": \"%s\", \"flags\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
  std::filesystem::create_directories(args.out_dir);
  perfbench::Report report;
  if (args.trace) perfbench::InitLayerMetrics(&report);
  workload->Measure(&report);
  if (!args.trace) {
    report.Set("setup_s", setup_s, "s");
    report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
