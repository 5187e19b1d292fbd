// Round-trip and invariant tests across the whole corpus:
//  - syzlang fixpoint: Print(Parse(Print(spec))) == Print(spec) and the
//    reparse is error-free, for every ground-truth and existing spec of
//    every corpus module (the property the printer header promises);
//  - mutator invariants: arbitrarily mutated programs stay structurally
//    valid against their SpecLibrary (arg arity, backward resource refs,
//    len links), so the executor can always run them.

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "syzlang/parser.h"
#include "syzlang/printer.h"
#include "syzlang/validator.h"

namespace kernelgpt {
namespace {

using drivers::Corpus;

// -- Syzlang parser -> printer -> parser fixpoint ---------------------------

void
ExpectRoundTrip(const syzlang::SpecFile& spec, const std::string& label)
{
  const std::string once = syzlang::Print(spec);
  // Keep the origin: the printer renders it as a header comment, and the
  // fixpoint must compare like with like.
  syzlang::ParseResult reparsed = syzlang::Parse(once, spec.origin);
  ASSERT_TRUE(reparsed.ok()) << label << ": reparse errors, first: "
                             << reparsed.errors.front();
  EXPECT_EQ(reparsed.spec.decls.size(), spec.decls.size()) << label;
  const std::string twice = syzlang::Print(reparsed.spec);
  EXPECT_EQ(once, twice) << label << ": print -> parse -> print not a "
                         << "fixpoint";
}

TEST(SyzlangRoundTripTest, GroundTruthDeviceSpecsReachFixpoint)
{
  for (const auto& dev : Corpus::Instance().devices()) {
    ExpectRoundTrip(drivers::GroundTruthDeviceSpec(dev), "gt:" + dev.id);
  }
}

TEST(SyzlangRoundTripTest, ExistingDeviceSpecsReachFixpoint)
{
  for (const auto& dev : Corpus::Instance().devices()) {
    syzlang::SpecFile spec = drivers::ExistingDeviceSpec(dev);
    if (spec.decls.empty()) continue;  // Some drivers have no existing spec.
    ExpectRoundTrip(spec, "existing:" + dev.id);
  }
}

TEST(SyzlangRoundTripTest, SocketSpecsReachFixpoint)
{
  for (const auto& sock : Corpus::Instance().sockets()) {
    ExpectRoundTrip(drivers::GroundTruthSocketSpec(sock), "gt:" + sock.id);
    syzlang::SpecFile existing = drivers::ExistingSocketSpec(sock);
    if (!existing.decls.empty()) {
      ExpectRoundTrip(existing, "existing:" + sock.id);
    }
  }
}

TEST(SyzlangRoundTripTest, RoundTrippedSpecStillValidates)
{
  // Fixpoint must preserve semantic validity, not only syntax.
  syzlang::ConstTable consts =
      Corpus::Instance().BuildIndex().BuildConstTable();
  const drivers::DeviceSpec* dm = Corpus::Instance().FindDevice("dm");
  ASSERT_NE(dm, nullptr);
  syzlang::SpecFile spec = drivers::GroundTruthDeviceSpec(*dm);

  syzlang::ValidationResult before = syzlang::Validate(spec, consts);
  syzlang::ParseResult reparsed = syzlang::Parse(syzlang::Print(spec), "dm");
  ASSERT_TRUE(reparsed.ok());
  syzlang::ValidationResult after = syzlang::Validate(reparsed.spec, consts);
  EXPECT_EQ(before.errors.size(), after.errors.size());
  EXPECT_TRUE(after.ok());
}

// -- Mutator invariants -----------------------------------------------------

class MutatorInvariantTest : public ::testing::Test {
 protected:
  static fuzzer::SpecLibrary MakeLibrary(const char* device_id) {
    fuzzer::SpecLibrary lib;
    lib.SetConsts(Corpus::Instance().BuildIndex().BuildConstTable());
    lib.Add(drivers::GroundTruthDeviceSpec(
        *Corpus::Instance().FindDevice(device_id)));
    lib.Finalize();
    return lib;
  }

  /// Structural validity the executor relies on.
  static void ExpectProgValid(const fuzzer::Prog& prog,
                              const fuzzer::SpecLibrary& lib) {
    size_t next_arg = 0;
    for (size_t ci = 0; ci < prog.calls.size(); ++ci) {
      const fuzzer::Call& call = prog.calls[ci];
      ASSERT_LT(call.syscall_index, lib.syscalls().size());
      const syzlang::SyscallDef& def = lib.syscalls()[call.syscall_index];
      // Calls own consecutive runs of the flat arg array, in order.
      ASSERT_EQ(call.first_arg, next_arg) << def.FullName();
      next_arg += call.num_args;
      ASSERT_LE(next_arg, prog.args.size());
      const util::Span<const fuzzer::Arg> args = prog.ArgsOf(ci);
      // One argument per declared parameter, always.
      ASSERT_EQ(args.size(), def.params.size()) << def.FullName();
      for (size_t ai = 0; ai < args.size(); ++ai) {
        const fuzzer::Arg& arg = args[ai];
        ASSERT_LE(size_t{arg.bytes_off} + arg.bytes_len, prog.bytes.size());
        if (arg.kind == fuzzer::Arg::Kind::kResourceRef) {
          // Resource refs only point backwards (results exist at exec time).
          EXPECT_GE(arg.ref_call, -1);
          EXPECT_LT(arg.ref_call, static_cast<int>(ci)) << def.FullName();
        }
        if (arg.len_of_param >= 0) {
          // Live len links name a sibling and carry its current size.
          ASSERT_LT(arg.len_of_param, static_cast<int>(args.size()));
          const fuzzer::Arg& target =
              args[static_cast<size_t>(arg.len_of_param)];
          EXPECT_EQ(arg.scalar, target.bytes_len) << def.FullName();
        } else {
          EXPECT_TRUE(arg.len_of_param == -1 ||
                      arg.len_of_param == fuzzer::kBrokenLenLink);
        }
      }
    }
    EXPECT_EQ(next_arg, prog.args.size());
  }
};

TEST_F(MutatorInvariantTest, MutatedProgsStayValidAgainstLibrary)
{
  fuzzer::SpecLibrary lib = MakeLibrary("dm");
  util::Rng rng(1234);
  fuzzer::Generator generator(&lib, &rng);
  fuzzer::Mutator mutator(&lib, &generator, &rng);

  for (int round = 0; round < 200; ++round) {
    fuzzer::Prog prog = generator.Generate(6);
    ExpectProgValid(prog, lib);
    // Pile mutations on the same program; validity must be preserved
    // across arbitrary operator sequences, not just one step.
    for (int step = 0; step < 8; ++step) {
      mutator.Mutate(&prog);
      ExpectProgValid(prog, lib);
    }
  }
}

TEST_F(MutatorInvariantTest, ResourceChainsSurviveMutationOnKvm)
{
  // kvm has the deepest resource chain (fd_kvm -> vm -> vcpu), so call
  // removal/duplication stresses ref fixup hardest there.
  fuzzer::SpecLibrary lib = MakeLibrary("kvm");
  util::Rng rng(77);
  fuzzer::Generator generator(&lib, &rng);
  fuzzer::Mutator mutator(&lib, &generator, &rng);

  for (int round = 0; round < 100; ++round) {
    fuzzer::Prog prog = generator.Generate(8);
    for (int step = 0; step < 12; ++step) {
      mutator.Mutate(&prog);
      ExpectProgValid(prog, lib);
    }
  }
}

TEST_F(MutatorInvariantTest, MutationIsDeterministicForSeed)
{
  fuzzer::SpecLibrary lib = MakeLibrary("dm");
  auto run = [&lib] {
    util::Rng rng(555);
    fuzzer::Generator generator(&lib, &rng);
    fuzzer::Mutator mutator(&lib, &generator, &rng);
    fuzzer::Prog prog = generator.Generate(6);
    for (int i = 0; i < 20; ++i) mutator.Mutate(&prog);
    return FormatProg(prog, lib);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace kernelgpt
