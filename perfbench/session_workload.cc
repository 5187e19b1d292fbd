// session_campaign and session_probe: fuzzing Session rounds over the
// Syzkaller + KernelGPT suite (every loaded driver and socket family,
// including the vnet TCP/UDP stack). One operation is a round:
// Session::RunRound followed by Session::Save into the run's snapshot
// directory.
//
// A run is a sequence of episodes. An episode is a fresh Session with the
// run's seed and a fixed number of rounds, so every episode does the same
// work: the untimed first episode is the reference each later episode
// must reproduce bit for bit, and each episode ends with a fresh
// Session::Resume of its directory that must reproduce the live session.
// A traced run alternates plain and traced episodes; a traced episode
// boots kernels through a timing wrapper, replays each round stage by
// stage, and probes the generator, mutator and executor.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "experiments/context.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "fuzzer/session.h"
#include "trace.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vkernel/kernel.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace kernelgpt;

constexpr char kSuite[] = "Syzkaller + KernelGPT";

struct Settings {
  int budget;         ///< Programs per round.
  bool diff;          ///< Strict-vs-permissive oracle after every round.
  fuzzer::SnapshotCodec codec;
  int compact_every;  ///< Rounds between journal compactions.
  int rounds;         ///< Rounds per episode.
};

// Both workloads run one orchestrator worker. With two, every sync epoch
// ends at a barrier, and on a shared VM a blocked vCPU can be slow to wake
// up: session_campaign rounds then swung between 41 ms and 73 ms from one
// period of host load to the next, while one worker moved far less.

// Campaign-heavy: generation, mutation, execution and coverage do most of
// the work.
constexpr Settings kCampaign = {8000, false, fuzzer::SnapshotCodec::kBinary,
                                8, 16};
// Boot-heavy: small rounds with the diff oracle on, so kernel boot, the
// DiffRunner and the text snapshot dominate. Compacting every 4 rounds puts
// 3 of an episode's 16 rounds above op_ms_p90, so the percentile measures
// compaction instead of the noisy tail of ordinary rounds (its run-to-run
// spread fell from 20% to 8%).
constexpr Settings kProbe = {256, true, fuzzer::SnapshotCodec::kText, 4, 16};

/// What a session's durable state must reproduce.
struct EndState {
  int rounds = 0;
  std::vector<uint64_t> coverage;
  std::map<std::string, int> crashes;
  std::vector<uint64_t> corpus;
  std::map<std::string, uint64_t> reproducers;
  size_t divergences = 0;  ///< Unique divergences summed over rounds.

  bool operator==(const EndState& o) const
  {
    return rounds == o.rounds && coverage == o.coverage &&
           crashes == o.crashes && corpus == o.corpus &&
           reproducers == o.reproducers && divergences == o.divergences;
  }
};

std::vector<uint64_t>
Hashes(const std::vector<fuzzer::Prog>& progs)
{
  std::vector<uint64_t> out;
  out.reserve(progs.size());
  for (const fuzzer::Prog& p : progs) out.push_back(fuzzer::HashProg(p));
  return out;
}

EndState
Capture(const fuzzer::Session& session)
{
  const fuzzer::SuiteState& s = *session.Find(kSuite);
  EndState out;
  out.rounds = session.rounds_completed();
  out.coverage = s.coverage.SortedBlocks();
  out.crashes = s.crashes;
  out.corpus = Hashes(s.corpus);
  for (const auto& [title, prog] : s.crash_reproducers) {
    out.reproducers[title] = fuzzer::HashProg(prog);
  }
  for (const fuzzer::RoundReport& r : s.rounds) {
    out.divergences += r.divergences;
  }
  return out;
}

/// Per-round and per-episode samples, split by plain and traced episodes.
struct Samples {
  std::vector<double> round_ms;
  double programs = 0;
  // Traced episodes only.
  std::vector<double> campaign_ms;
  std::vector<double> post_campaign_ms;
  std::vector<double> save_bytes;
  std::vector<double> coverage_delta;
  std::vector<double> merged;
  std::vector<double> distilled;
  std::vector<double> resume_ms;
};

/// Sums of the stage replay's counters over traced rounds.
struct ReplayTotals {
  double rounds = 0;
  double replayed = 0;
  double minimize_execs = 0;
  double distill_input = 0;
  double distill_selected = 0;
  double diff_programs = 0;
  double diverging_programs = 0;
  // Component probes.
  double probe_programs = 0;
  double probe_calls = 0;
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(const Args& args, Settings settings)
      : args_(args), settings_(settings)
  {
  }

  util::Status Setup() override;
  void Measure(Report* report) override;

 private:
  fuzzer::SessionOptions Options() const;
  void PlainBoot(vkernel::KernelModel* kernel) const
  {
    context_->BootKernel(kernel);
  }
  /// Runs one episode; `tracer` non-null makes it a traced episode.
  EndState Episode(Tracer* tracer, Samples* samples, ReplayTotals* totals,
                   Report* report);
  /// Re-runs round `round` stage by stage from its inputs and checks that
  /// the stages reproduce what the session recorded.
  void Replay(Tracer* tracer, const fuzzer::Session& session, int round,
              const std::vector<fuzzer::Prog>& seeds, ReplayTotals* totals,
              Report* report) const;
  /// Times generation, mutation and execution of fresh programs.
  void ProbeComponents(Tracer* tracer, ReplayTotals* totals) const;

  Args args_;
  Settings settings_;
  std::unique_ptr<experiments::ExperimentContext> context_;
  fuzzer::SpecLibrary library_;
  fuzzer::Orchestrator::BootFn plain_boot_;
};

util::Status
SessionWorkload::Setup()
{
  util::Status status = experiments::ExperimentContext::Create(
      experiments::ContextOptions(), &context_);
  if (!status.ok()) return status;
  library_ = context_->SyzkallerPlusKernelGptSuite();
  plain_boot_ = [this](vkernel::KernelModel* kernel) { PlainBoot(kernel); };
  // Construction and registration are part of what a user pays up front.
  fuzzer::Session session(Options(), plain_boot_);
  return session.RegisterSuite(kSuite, &library_);
}

fuzzer::SessionOptions
SessionWorkload::Options() const
{
  fuzzer::SessionOptions options;
  options.WithSeed(args_.seed)
      .WithRounds(settings_.rounds)
      .WithSchedule(fuzzer::SeedSchedule::kHashChain)
      .WithCarryCorpus(true)
      .WithDistill(true)
      .WithWorkers(1)
      .WithProgramBudget(settings_.budget)
      .WithSnapshotCodec(settings_.codec)
      .WithJournalCompaction(settings_.compact_every);
  if (settings_.diff) options.WithDiffSubject(vkernel::MakePermissiveModel);
  return options;
}

EndState
SessionWorkload::Episode(Tracer* tracer, Samples* samples,
                         ReplayTotals* totals, Report* report)
{
  const std::string dir = args_.out_dir + "/snapshot";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // The traced boot wraps the plain one in a span on the booting thread.
  fuzzer::Orchestrator::BootFn boot = plain_boot_;
  if (tracer) {
    boot = [this, tracer](vkernel::KernelModel* kernel) {
      Tracer::Scope scope(tracer, "ExperimentContext::BootKernel", "drivers");
      PlainBoot(kernel);
    };
  }
  fuzzer::Session session(Options(), boot);
  const util::Status registered = session.RegisterSuite(kSuite, &library_);
  report->Attempt(registered.ok(), registered.message());
  if (!registered.ok()) return EndState();
  const fuzzer::SuiteState& state = *session.Find(kSuite);

  for (int round = 0; round < settings_.rounds; ++round) {
    if (tracer) tracer->SetOp(static_cast<uint64_t>(round));
    // The replay needs the round's seed corpus, which RunRound replaces.
    std::vector<fuzzer::Prog> seeds;
    if (tracer) seeds = state.corpus;
    util::Status status = util::Status::Ok();
    util::Status saved = util::Status::Ok();
    double bytes = 0;
    double run_ms = 0;
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "round", "fuzzer");
      status = Traced(tracer, "Session::RunRound", "fuzzer",
                      [&] { return session.RunRound(); });
      run_ms = MsSince(start);
      if (status.ok()) {
        const double written = tracer ? WrittenBytes() : 0;
        saved = Traced(tracer, "Session::Save", "snapshot",
                       [&] { return session.Save(dir); });
        if (tracer) bytes = WrittenBytes() - written;
      }
    }
    const double round_ms = MsSince(start);
    if (!status.ok() || !saved.ok()) {
      report->Attempt(false, util::Format("round %d: %s", round,
                                          (!status.ok() ? status : saved)
                                              .message()
                                              .c_str()));
      return Capture(session);
    }
    report->Attempt(true, "");
    const fuzzer::RoundReport& recorded = state.rounds.back();
    samples->round_ms.push_back(round_ms);
    samples->programs += static_cast<double>(recorded.programs_executed);
    if (!tracer) continue;
    samples->campaign_ms.push_back(recorded.wall_seconds * 1e3);
    samples->post_campaign_ms.push_back(run_ms - recorded.wall_seconds * 1e3);
    samples->save_bytes.push_back(bytes);
    samples->coverage_delta.push_back(
        static_cast<double>(recorded.coverage_delta));
    samples->merged.push_back(static_cast<double>(recorded.merged_corpus));
    samples->distilled.push_back(
        static_cast<double>(recorded.distilled_corpus));
    Replay(tracer, session, round, seeds, totals, report);
  }
  if (tracer) ProbeComponents(tracer, totals);

  // A fresh session resumed from the directory must match the live one.
  const Clock::time_point start = Clock::now();
  fuzzer::Session resumed(Options(), plain_boot_);
  util::Status status = resumed.RegisterSuite(kSuite, &library_);
  if (status.ok()) status = resumed.Resume(dir);
  samples->resume_ms.push_back(MsSince(start));
  report->Attempt(status.ok() && Capture(resumed) == Capture(session),
                  "Session::Resume does not reproduce the live session: " +
                      status.message());
  std::filesystem::remove_all(dir, ec);
  return Capture(session);
}

void
SessionWorkload::Replay(Tracer* tracer, const fuzzer::Session& session,
                        int round, const std::vector<fuzzer::Prog>& seeds,
                        ReplayTotals* totals, Report* report) const
{
  const fuzzer::SessionOptions& options = session.options();
  const fuzzer::SuiteState& state = *session.Find(kSuite);
  const fuzzer::RoundReport& recorded = state.rounds.back();
  const uint64_t seed = session.RoundSeed(round);

  fuzzer::OrchestratorOptions orchestrator = options.orchestrator;
  orchestrator.campaign.seed = seed;
  orchestrator.campaign.seed_corpus = seeds;
  const fuzzer::OrchestratorResult campaign =
      Traced(tracer, "RunShardedCampaign", "fuzzer", [&] {
        return fuzzer::RunShardedCampaign(library_, plain_boot_, orchestrator);
      });
  const fuzzer::Distiller distiller(&library_, plain_boot_, options.distill);
  const fuzzer::DistillResult distilled =
      Traced(tracer, "Distiller::Distill", "fuzzer",
             [&] { return distiller.Distill(campaign.corpus); });

  fuzzer::DiffReport diff;
  if (options.diff_subject) {
    // The session diffs the distilled corpus plus mutated probe programs
    // drawn from a stream keyed on the round seed.
    std::vector<fuzzer::Prog> progs = distilled.corpus;
    util::Rng rng(util::HashCombine(seed, 0xD1FFu));
    fuzzer::Generator generator(&library_, &rng);
    fuzzer::Mutator mutator(&library_, &generator, &rng);
    for (int p = 0; p < options.diff_probe_budget; ++p) {
      fuzzer::Prog prog = generator.Generate(6);
      mutator.Mutate(&prog);
      if (!prog.empty()) progs.push_back(std::move(prog));
    }
    fuzzer::DiffOptions diff_options;
    diff_options.baseline = options.orchestrator.model_factory;
    diff_options.subject = options.diff_subject;
    diff_options.boot = plain_boot_;
    diff_options.num_workers = options.diff_workers;
    const fuzzer::DiffRunner runner(&library_, diff_options);
    diff = Traced(tracer, "DiffRunner::Run", "fuzzer",
                  [&] { return runner.Run(progs); });
  }

  const bool same =
      campaign.coverage.Count() == recorded.round_coverage &&
      state.coverage.CoversAll(campaign.coverage) &&
      campaign.crashes.size() == recorded.round_unique_crashes &&
      campaign.programs_executed == recorded.programs_executed &&
      campaign.corpus.size() == recorded.merged_corpus &&
      Hashes(distilled.corpus) == Hashes(state.corpus) &&
      diff.UniqueDivergenceCount() == recorded.divergences;
  report->Attempt(same, util::Format("stage replay of round %d does not "
                                     "reproduce the session's round",
                                     round));
  totals->rounds += 1;
  totals->replayed += static_cast<double>(distilled.stats.replayed);
  totals->minimize_execs +=
      static_cast<double>(distilled.stats.minimize_executions);
  totals->distill_input += static_cast<double>(distilled.stats.input_programs);
  totals->distill_selected += static_cast<double>(distilled.stats.selected);
  totals->diff_programs += static_cast<double>(diff.programs);
  totals->diverging_programs += static_cast<double>(diff.diverging_programs);
}

void
SessionWorkload::ProbeComponents(Tracer* tracer, ReplayTotals* totals) const
{
  constexpr int kPrograms = 2000;
  util::Rng rng(util::HashCombine(args_.seed, 0x9B0Bu));
  fuzzer::Generator generator(&library_, &rng);
  fuzzer::Mutator mutator(&library_, &generator, &rng);
  std::unique_ptr<vkernel::KernelModel> kernel = vkernel::MakeStrictModel();
  PlainBoot(kernel.get());
  fuzzer::Executor executor(kernel.get(), &library_);
  vkernel::Coverage coverage;
  std::vector<fuzzer::Prog> progs(kPrograms);
  Traced(tracer, "Generator::Generate", "fuzzer", [&] {
    for (fuzzer::Prog& prog : progs) prog = generator.Generate(6);
  });
  Traced(tracer, "Mutator::Mutate", "fuzzer", [&] {
    for (fuzzer::Prog& prog : progs) mutator.Mutate(&prog);
  });
  Traced(tracer, "Executor::Run", "fuzzer", [&] {
    for (const fuzzer::Prog& prog : progs) {
      totals->probe_calls +=
          static_cast<double>(executor.Run(prog, &coverage).calls_executed);
    }
  });
  totals->probe_programs += kPrograms;
}

void
SessionWorkload::Measure(Report* report)
{
  Samples reference_samples;
  ReplayTotals unused;
  const EndState expected =
      Episode(nullptr, &reference_samples, &unused, report);

  Tracer tracer;
  Samples plain;
  Samples traced;
  ReplayTotals totals;
  int episodes[2] = {0, 0};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  for (int e = 0; Clock::now() < deadline || episodes[0] == 0 ||
                  (args_.trace && episodes[1] == 0);
       ++e) {
    const bool trace = args_.trace && e % 2 == 1;
    const EndState end = Episode(trace ? &tracer : nullptr,
                                 trace ? &traced : &plain, &totals, report);
    ++episodes[trace];
    report->Attempt(end == expected,
                    util::Format("episode %d does not reproduce the reference "
                                 "episode",
                                 e));
  }

  if (!args_.trace) {
    report->Set("op_ms_p50", Quantile(plain.round_ms, 0.5), "ms");
    report->Set("op_ms_p90", Quantile(plain.round_ms, 0.9), "ms");
    report->Set("items_per_s", plain.programs / (Sum(plain.round_ms) / 1e3),
                "1/s");
    report->Set("useful_outputs", static_cast<double>(expected.coverage.size()),
                "count");
    return;
  }
  const double rounds = totals.rounds;
  const std::vector<double> boots =
      tracer.DurationsMs("ExperimentContext::BootKernel");
  report->Set("drivers.boots_per_round",
              static_cast<double>(boots.size()) / rounds, "count");
  report->Set("drivers.boot_ms_per_round", Sum(boots) / rounds, "ms");
  report->Set("drivers.boot_ms_p50", Quantile(boots, 0.5), "ms");
  report->Set("orchestrator.campaign_ms", Quantile(traced.campaign_ms, 0.5),
              "ms");
  const double probe_us_per_prog = 1e3 / totals.probe_programs;
  report->Set("generator.generate_us",
              Sum(tracer.DurationsMs("Generator::Generate")) * probe_us_per_prog,
              "us");
  report->Set("mutator.mutate_us",
              Sum(tracer.DurationsMs("Mutator::Mutate")) * probe_us_per_prog,
              "us");
  report->Set("executor.run_us",
              Sum(tracer.DurationsMs("Executor::Run")) * probe_us_per_prog,
              "us");
  report->Set("executor.calls_per_prog",
              totals.probe_calls / totals.probe_programs, "count");
  report->Set("coverage.delta_per_round", Mean(traced.coverage_delta),
              "count");
  report->Set("distiller.distill_ms",
              Quantile(tracer.DurationsMs("Distiller::Distill"), 0.5), "ms");
  report->Set("distiller.replayed", totals.replayed / rounds, "count");
  report->Set("distiller.minimize_execs", totals.minimize_execs / rounds,
              "count");
  report->Set("corpus.merged", Mean(traced.merged), "count");
  report->Set("corpus.distilled", Mean(traced.distilled), "count");
  report->Set("distiller.keep_ratio",
              totals.distill_selected / totals.distill_input, "ratio");
  report->Set("diff_runner.diff_ms",
              Quantile(tracer.DurationsMs("DiffRunner::Run"), 0.5), "ms");
  report->Set("diff_runner.programs", totals.diff_programs / rounds, "count");
  report->Set("diff_runner.diverging_programs",
              totals.diverging_programs / rounds, "count");
  report->Set("diff_runner.divergences",
              static_cast<double>(expected.divergences), "count");
  const std::vector<double> save_ms = tracer.DurationsMs("Session::Save");
  report->Set("snapshot.save_ms_p50", Quantile(save_ms, 0.5), "ms");
  report->Set("snapshot.save_ms_p90", Quantile(save_ms, 0.9), "ms");
  report->Set("snapshot.bytes_per_round", Mean(traced.save_bytes), "bytes");
  std::vector<double> resume_ms = plain.resume_ms;
  resume_ms.insert(resume_ms.end(), traced.resume_ms.begin(),
                   traced.resume_ms.end());
  report->Set("snapshot.resume_ms", Quantile(resume_ms, 0.5), "ms");
  report->Set("session.post_campaign_ms",
              Quantile(traced.post_campaign_ms, 0.5), "ms");
  report->Set("session.crash_titles",
              static_cast<double>(expected.crashes.size()), "count");
  report->Set("trace.overhead_frac",
              Quantile(traced.round_ms, 0.5) / Quantile(plain.round_ms, 0.5) -
                  1.0,
              "ratio");
  if (!tracer.WriteChromeJson(args_.out_dir + "/trace.json")) {
    report->Attempt(false, "cannot write the Chrome trace");
  }
}

}  // namespace

std::unique_ptr<Workload>
MakeSessionWorkload(const Args& args)
{
  if (args.workload == "session_campaign") {
    return std::make_unique<SessionWorkload>(args, kCampaign);
  }
  if (args.workload == "session_probe") {
    return std::make_unique<SessionWorkload>(args, kProbe);
  }
  return nullptr;
}

}  // namespace perfbench
