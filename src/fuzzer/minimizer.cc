#include "fuzzer/minimizer.h"

#include <algorithm>

namespace kernelgpt::fuzzer {

MinimizeResult
MinimizeWhile(const Prog& input, const MinimizeProperty& property)
{
  MinimizeResult result;

  auto holds = [&](const Prog& candidate) {
    ++result.executions;
    return property(candidate);
  };

  if (input.empty()) return result;  // Nothing to replay or shrink.

  if (!holds(input)) {
    result.prog = input;
    return result;
  }
  result.reproduced = true;
  result.prog = input;

  // Pass 1: drop calls until no single removal keeps the property.
  bool shrunk = true;
  while (shrunk && result.prog.calls.size() > 1) {
    shrunk = false;
    for (size_t i = result.prog.calls.size(); i-- > 0;) {
      Prog candidate = result.prog;
      candidate.RemoveCall(i);
      if (candidate.empty()) continue;
      if (holds(candidate)) {
        result.prog = std::move(candidate);
        shrunk = true;
        break;  // Restart the scan on the smaller program.
      }
    }
  }

  // Pass 2: zero scalar arguments that the property does not depend on.
  for (Arg& arg : result.prog.args) {
    if (arg.kind != Arg::Kind::kScalar || arg.scalar == 0) continue;
    uint64_t saved = arg.scalar;
    arg.scalar = 0;
    if (!holds(result.prog)) arg.scalar = saved;
  }

  // Pass 3: zero buffer bytes region-wise (keeps property-relevant
  // fields).
  constexpr size_t kChunk = 8;
  for (const Arg& arg : result.prog.args) {
    if (arg.kind != Arg::Kind::kBuffer) continue;
    const util::Span<uint8_t> bytes = result.prog.BytesOf(arg);
    for (size_t offset = 0; offset < bytes.size(); offset += kChunk) {
      uint8_t saved[kChunk];
      const size_t n = std::min(kChunk, bytes.size() - offset);
      std::copy(bytes.begin() + offset, bytes.begin() + offset + n, saved);
      if (std::all_of(saved, saved + n, [](uint8_t b) { return b == 0; })) {
        continue;
      }
      std::fill(bytes.begin() + offset, bytes.begin() + offset + n, 0);
      if (!holds(result.prog)) {
        std::copy(saved, saved + n, bytes.begin() + offset);
      }
    }
  }
  return result;
}

MinimizeResult
MinimizeCrash(vkernel::KernelModel* kernel, const SpecLibrary& lib,
              const Prog& crashing, const std::string& crash_title)
{
  Executor executor(kernel, &lib);
  return MinimizeCrash(&executor, crashing, crash_title);
}

MinimizeResult
MinimizeCrash(Executor* executor, const Prog& crashing,
              const std::string& crash_title)
{
  return MinimizeWhile(crashing, [&](const Prog& candidate) {
    ExecResult exec = executor->Run(candidate, nullptr);
    return exec.crashed && exec.crash_title == crash_title;
  });
}

}  // namespace kernelgpt::fuzzer
