/// \file
/// Program representation: a sequence of syscall invocations with
/// concrete arguments, resource references between calls, and len
/// linkage — the unit the generator produces, the mutator perturbs, and
/// the executor runs against the virtual kernel.
///
/// A Prog is stored flat, in three contiguous arrays: `calls`, `args`
/// (each call owns the run [first_arg, first_arg + num_args), runs laid
/// out in call order) and `bytes`, one arena holding every buffer
/// payload. Copying a program is three array copies, and a warm Prog
/// reused for the next program allocates nothing.

#ifndef KERNELGPT_FUZZER_PROG_H_
#define KERNELGPT_FUZZER_PROG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzzer/spec_library.h"
#include "util/span.h"

namespace kernelgpt::fuzzer {

/// One concrete argument of one call.
struct Arg {
  enum class Kind : uint8_t {
    kScalar,       ///< Immediate value.
    kBuffer,       ///< Pointer argument with attached user memory.
    kResourceRef,  ///< Uses the result (fd) of an earlier call.
  };
  Kind kind = Kind::kScalar;
  syzlang::Dir dir = syzlang::Dir::kIn;  ///< kBuffer direction.
  int ref_call = -1;                     ///< kResourceRef producer index.
  /// When >= 0, this scalar's value is the generated length of the
  /// sibling parameter with that index (len[...] at syscall level).
  /// kBrokenLenLink marks a deliberately corrupted length that relinking
  /// must not repair.
  int len_of_param = -1;
  uint64_t scalar = 0;
  /// Payload (kBuffer) as a range of Prog::bytes.
  uint32_t bytes_off = 0;
  uint32_t bytes_len = 0;
};

/// Sentinel for Arg::len_of_param (see above).
inline constexpr int kBrokenLenLink = -2;

/// One syscall invocation: its args are Prog::args[first_arg, +num_args).
struct Call {
  size_t syscall_index = 0;  ///< Index into the SpecLibrary.
  uint32_t first_arg = 0;
  uint32_t num_args = 0;
};

/// A fuzz program.
struct Prog {
  std::vector<Call> calls;
  std::vector<Arg> args;
  std::vector<uint8_t> bytes;  ///< Payload arena; may hold dead ranges.

  bool empty() const { return calls.empty(); }
  size_t size() const { return calls.size(); }

  util::Span<Arg> ArgsOf(size_t call) {
    return {args.data() + calls[call].first_arg, calls[call].num_args};
  }
  util::Span<const Arg> ArgsOf(size_t call) const {
    return {args.data() + calls[call].first_arg, calls[call].num_args};
  }
  util::Span<uint8_t> BytesOf(const Arg& arg) {
    return {bytes.data() + arg.bytes_off, arg.bytes_len};
  }
  util::Span<const uint8_t> BytesOf(const Arg& arg) const {
    return {bytes.data() + arg.bytes_off, arg.bytes_len};
  }

  /// Empties the program, keeping every array's capacity.
  void Clear() {
    calls.clear();
    args.clear();
    bytes.clear();
  }

  /// Starts a new last call; AddArg appends to it.
  void AddCall(size_t syscall_index) {
    calls.push_back({syscall_index, static_cast<uint32_t>(args.size()), 0});
  }
  /// Appends `arg` to the last call (AddCall() must have started one)
  /// with a copy of `payload`, which must not point into this arena, as
  /// its bytes; arg.bytes_off/bytes_len are overwritten.
  void AddArg(Arg arg, util::Span<const uint8_t> payload = {});

  /// Removes call `index`: a ref to it becomes -1 (a bad fd), and refs
  /// to later calls shift down by one. Its bytes are left dead.
  void RemoveCall(size_t index);

  /// Appends a copy of call `index` at the end, with its own bytes.
  void DuplicateCall(size_t index);

  /// Payload bytes some arg references.
  size_t LiveBytes() const;

  /// Rewrites the arena to hold only live bytes, in arg order.
  void CompactBytes();
};

/// Builds a program call by call; for programs written by hand (tests,
/// examples, seed corpora):
///   ProgBuilder().Call(socket).Scalar(2).Scalar(1).Scalar(6)
///                .Call(bind).Ref(0).Buffer(addr).Len(8, 1).Build();
class ProgBuilder {
 public:
  ProgBuilder& Call(size_t syscall_index) {
    prog_.AddCall(syscall_index);
    return *this;
  }
  ProgBuilder& Scalar(uint64_t value) {
    Arg arg;
    arg.scalar = value;
    prog_.AddArg(arg);
    return *this;
  }
  ProgBuilder& Ref(int call) {
    Arg arg;
    arg.kind = Arg::Kind::kResourceRef;
    arg.ref_call = call;
    prog_.AddArg(arg);
    return *this;
  }
  ProgBuilder& Buffer(const std::vector<uint8_t>& payload,
                      syzlang::Dir dir = syzlang::Dir::kIn) {
    Arg arg;
    arg.kind = Arg::Kind::kBuffer;
    arg.dir = dir;
    prog_.AddArg(arg, payload);
    return *this;
  }
  /// A scalar holding the length of sibling parameter `of_param`.
  ProgBuilder& Len(uint64_t value, int of_param) {
    Arg arg;
    arg.scalar = value;
    arg.len_of_param = of_param;
    prog_.AddArg(arg);
    return *this;
  }
  Prog Build() { return std::move(prog_); }

 private:
  Prog prog_;
};

/// Renders a program as readable pseudo-syzlang (for reports/examples).
std::string FormatProg(const Prog& prog, const SpecLibrary& lib);

/// Stable structural hash over every field of every call (syscall index,
/// argument kinds, scalars, buffer bytes, resource refs, len links).
/// Equal programs hash equal on any platform/run; used for exact-duplicate
/// detection when corpora from many shards are merged for distillation.
/// Where a payload sits in the arena does not enter the hash.
uint64_t HashProg(const Prog& prog);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_PROG_H_
