// Golden determinism constants. The other determinism suites compare two
// runs inside one build, so they cannot notice a change that shifts the
// RNG draw order of generation or mutation the same way in both runs.
// These constants pin the absolute outputs of a fixed-seed generate +
// mutate stream and of one campaign; any change to them means programs,
// coverage or crashes differ from every earlier build.

#include <gtest/gtest.h>

#include "experiments/context.h"
#include "fuzzer/campaign.h"
#include "util/rng.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using experiments::ExperimentContext;

TEST(GoldenTest, GenerateMutateStreamHashIsPinned)
{
  const SpecLibrary lib =
      ExperimentContext::Default().SyzkallerPlusKernelGptSuite();
  util::Rng rng(42);
  Generator generator(&lib, &rng);
  Mutator mutator(&lib, &generator, &rng);
  uint64_t chain = 0;
  for (int i = 0; i < 20000; ++i) {
    Prog prog = generator.Generate(6);
    mutator.Mutate(&prog);
    chain = util::HashCombine(chain, HashProg(prog));
  }
  EXPECT_EQ(chain, 14759536296196606911ULL);
}

TEST(GoldenTest, CampaignOutcomeIsPinned)
{
  const ExperimentContext& context = ExperimentContext::Default();
  const SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  vkernel::Kernel kernel;
  context.BootKernel(&kernel);

  // RunCampaign's loop with the corpus kept, so its programs can be
  // pinned too.
  CampaignOptions options;
  options.seed = 42;
  options.program_budget = 50000;
  util::Rng rng(options.seed);
  Generator generator(&lib, &rng);
  Mutator mutator(&lib, &generator, &rng);
  Executor executor(&kernel, &lib);
  std::vector<Prog> corpus;
  CampaignResult result;
  CampaignState state;
  state.generator = &generator;
  state.mutator = &mutator;
  state.executor = &executor;
  state.rng = &rng;
  state.corpus = &corpus;
  state.coverage = &result.coverage;
  state.crashes = &result.crashes;
  state.programs_executed = &result.programs_executed;
  RunCampaignChunk(options, state, options.program_budget, nullptr);

  uint64_t crash_hash = util::HashCombine(0, result.crashes.size());
  int crash_total = 0;
  for (const auto& [title, count] : result.crashes) {
    crash_hash = util::HashCombine(crash_hash, util::StableHash(title));
    crash_hash = util::HashCombine(crash_hash, static_cast<uint64_t>(count));
    crash_total += count;
  }
  uint64_t corpus_hash = util::HashCombine(0, corpus.size());
  for (const Prog& prog : corpus) {
    corpus_hash = util::HashCombine(corpus_hash, HashProg(prog));
  }

  EXPECT_EQ(result.programs_executed, 50000u);
  EXPECT_EQ(result.coverage.Count(), 3860u);
  EXPECT_EQ(result.crashes.size(), 29u);
  EXPECT_EQ(crash_total, 1321);
  EXPECT_EQ(crash_hash, 14628333091158180299ULL);
  EXPECT_EQ(corpus.size(), 256u);
  EXPECT_EQ(corpus_hash, 17144562606394691768ULL);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
