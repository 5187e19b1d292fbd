// specgen: repeated full-corpus KernelGPT passes. A pass indexes the
// synthetic kernel source, finds the driver and socket operation
// handlers, generates every handler's spec on the gpt-4 backend with one
// thread, and builds the spec library a fuzzer would load. It is the only
// workload that runs ksrc, extractor, llm, spec_gen and syzlang, and it
// never boots a kernel, so a fuzzer-side change should leave it unchanged.
// The corpus is fixed: the seed selects nothing.

#include <string>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "extractor/handler_finder.h"
#include "fuzzer/spec_library.h"
#include "llm/registry.h"
#include "spec_gen/service.h"
#include "syzlang/printer.h"
#include "syzlang/validator.h"
#include "trace.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace kernelgpt;

constexpr char kBackend[] = "gpt-4";

/// Everything one pass produces. Built in place and never moved: the
/// handlers and the service point into `index`.
struct Pass {
  ksrc::DefinitionIndex index;
  std::vector<extractor::DriverHandler> drivers;
  std::vector<extractor::SocketHandler> sockets;
  spec_gen::ServiceResult generated;
  fuzzer::SpecLibrary library;

  const spec_gen::BackendRun& run() const { return generated.runs.front(); }
  size_t handlers() const { return drivers.size() + sockets.size(); }
};

bool
Usable(const spec_gen::HandlerGeneration& gen)
{
  return gen.status != spec_gen::GenStatus::kFailed;
}

/// FNV-1a over every generation's status and printed spec, in order.
uint64_t
Digest(const spec_gen::BackendRun& run)
{
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const spec_gen::HandlerGeneration& gen : run.generations) {
    mix(std::to_string(static_cast<int>(gen.status)));
    mix(syzlang::Print(gen.spec));
  }
  return h;
}

class SpecgenWorkload : public Workload {
 public:
  explicit SpecgenWorkload(const Args& args) : args_(args) {}

  util::Status Setup() override
  {
    corpus_ = &drivers::Corpus::Instance();
    if (!llm::BackendRegistry::Default().Find(kBackend)) {
      return util::Status::Error(
          util::Format("no backend '%s' registered", kBackend));
    }
    return util::Status::Ok();
  }

  void Measure(Report* report) override;

 private:
  void RunPass(Tracer* tracer, Pass* pass) const;
  /// Re-validates every usable spec of the reference pass.
  void CheckSpecs(const Pass& pass, Report* report) const;
  /// Regenerates each handler on its own generator, timing it, and checks
  /// the result against the pass's.
  void TraceHandlers(Tracer* tracer, const Pass& pass, Report* report) const;
  /// Times rendering the corpus source apart from parsing it.
  void TraceParse(Tracer* tracer, double* source_bytes) const;

  Args args_;
  const drivers::Corpus* corpus_ = nullptr;
};

void
SpecgenWorkload::RunPass(Tracer* tracer, Pass* pass) const
{
  pass->index = Traced(tracer, "Corpus::BuildIndex", "ksrc",
                       [&] { return corpus_->BuildIndex(); });
  Traced(tracer, "extractor::FindHandlers", "extractor", [&] {
    pass->drivers = extractor::FindDriverHandlers(pass->index);
    pass->sockets = extractor::FindSocketHandlers(pass->index);
  });
  spec_gen::ServiceOptions options;
  options.backends = {kBackend};
  options.num_threads = 1;
  const spec_gen::SpecGenService service(&pass->index, options);
  pass->generated =
      Traced(tracer, "SpecGenService::Generate", "spec_gen",
             [&] { return service.Generate(pass->drivers, pass->sockets); });
  Traced(tracer, "SpecLibrary::Build", "fuzzer", [&] {
    pass->library.SetConsts(pass->index.BuildConstTable());
    for (const spec_gen::HandlerGeneration& gen : pass->run().generations) {
      if (Usable(gen)) pass->library.Add(gen.spec);
    }
    pass->library.Finalize();
  });
}

void
SpecgenWorkload::CheckSpecs(const Pass& pass, Report* report) const
{
  const spec_gen::BackendRun& run = pass.run();
  report->Attempt(run.report.known && run.generations.size() == pass.handlers(),
                  "the service did not generate every handler");
  const syzlang::ConstTable consts = pass.index.BuildConstTable();
  for (const spec_gen::HandlerGeneration& gen : run.generations) {
    if (!Usable(gen)) continue;
    const syzlang::ValidationResult v = syzlang::Validate(gen.spec, consts);
    report->Attempt(v.ok(),
                    util::Format("usable spec '%s' re-validates with %zu errors",
                                 gen.module.c_str(), v.errors.size()));
  }
}

void
SpecgenWorkload::TraceHandlers(Tracer* tracer, const Pass& pass,
                               Report* report) const
{
  const llm::BackendRegistry& registry = llm::BackendRegistry::Default();
  const syzlang::ConstTable consts = pass.index.BuildConstTable();
  const std::vector<spec_gen::HandlerGeneration>& expected =
      pass.run().generations;
  for (size_t i = 0; i < pass.handlers() && i < expected.size(); ++i) {
    const bool socket = i >= pass.drivers.size();
    spec_gen::HandlerGeneration gen;
    {
      // Mirrors one service task: a fresh meter, backend and generator.
      Tracer::Scope scope(tracer, "KernelGpt::GenerateFor", "spec_gen");
      llm::TokenMeter meter;
      meter.SetKeepText(false);
      std::unique_ptr<llm::Backend> backend =
          registry.Create(kBackend, &pass.index, &meter);
      spec_gen::KernelGpt generator(&pass.index, spec_gen::Options(),
                                    backend.get(), &consts);
      gen = socket ? generator.GenerateForSocket(
                         pass.sockets[i - pass.drivers.size()])
                   : generator.GenerateForDriver(pass.drivers[i]);
    }
    report->Attempt(gen.status == expected[i].status &&
                        syzlang::Print(gen.spec) ==
                            syzlang::Print(expected[i].spec),
                    util::Format("handler %zu regenerated alone differs from "
                                 "the service's generation",
                                 i));
  }
}

void
SpecgenWorkload::TraceParse(Tracer* tracer, double* source_bytes) const
{
  std::vector<std::pair<std::string, std::string>> sources;
  Traced(tracer, "drivers::RenderSource", "drivers", [&] {
    for (const drivers::DeviceSpec& d : corpus_->devices()) {
      sources.emplace_back(drivers::RenderDeviceSource(d),
                           "drivers/" + d.id + ".c");
    }
    for (const drivers::SocketSpec& s : corpus_->sockets()) {
      sources.emplace_back(drivers::RenderSocketSource(s),
                           "net/" + s.id + ".c");
    }
  });
  *source_bytes = 0;
  for (const auto& source : sources) *source_bytes += source.first.size();
  Traced(tracer, "DefinitionIndex::Parse", "ksrc", [&] {
    ksrc::DefinitionIndex index;
    for (const auto& [text, path] : sources) index.AddSource(text, path);
    index.ResolveMacros();
  });
}

void
SpecgenWorkload::Measure(Report* report)
{
  // The untimed reference pass warms the process up and fixes the digest
  // every timed pass must reproduce.
  Pass reference;
  RunPass(nullptr, &reference);
  CheckSpecs(reference, report);
  const uint64_t expected_digest = Digest(reference.run());

  Tracer tracer;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  double source_bytes = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  // A traced run alternates plain and traced passes, so the tracing
  // overhead is measured under the same conditions as the layers.
  for (uint64_t op = 0; Clock::now() < deadline || plain_ms.empty() ||
                        (args_.trace && traced_ms.empty());
       ++op) {
    const bool traced = args_.trace && op % 2 == 1;
    tracer.SetOp(op);
    Pass pass;
    const Clock::time_point start = Clock::now();
    RunPass(traced ? &tracer : nullptr, &pass);
    (traced ? traced_ms : plain_ms).push_back(MsSince(start));
    report->Attempt(Digest(pass.run()) == expected_digest,
                    util::Format("pass %llu printed specs differ from the "
                                 "reference pass",
                                 static_cast<unsigned long long>(op)));
    if (traced) {
      TraceHandlers(&tracer, pass, report);
      TraceParse(&tracer, &source_bytes);
    }
  }

  const spec_gen::BackendReport& gen = reference.run().report;
  const double usable = static_cast<double>(gen.valid + gen.repaired);
  if (!args_.trace) {
    report->Set("op_ms_p50", Quantile(plain_ms, 0.5), "ms");
    report->Set("op_ms_p90", Quantile(plain_ms, 0.9), "ms");
    report->Set("items_per_s",
                static_cast<double>(reference.handlers() * plain_ms.size()) /
                    (Sum(plain_ms) / 1000.0),
                "1/s");
    report->Set("useful_outputs", usable, "count");
    return;
  }
  auto median = [&](const char* span) {
    return Quantile(tracer.DurationsMs(span), 0.5);
  };
  const double parse_ms = median("DefinitionIndex::Parse");
  report->Set("ksrc.build_index_ms", median("Corpus::BuildIndex"), "ms");
  report->Set("drivers.render_ms", median("drivers::RenderSource"), "ms");
  report->Set("ksrc.cparse_mb_per_s", source_bytes / 1e6 / (parse_ms / 1e3),
              "MB/s");
  report->Set("extractor.find_ms", median("extractor::FindHandlers"), "ms");
  report->Set("extractor.handlers", static_cast<double>(reference.handlers()),
              "count");
  report->Set("spec_gen.generate_ms", median("SpecGenService::Generate"),
              "ms");
  const std::vector<double> handler_ms =
      tracer.DurationsMs("KernelGpt::GenerateFor");
  report->Set("spec_gen.handler_ms_p50", Quantile(handler_ms, 0.5), "ms");
  report->Set("spec_gen.handler_ms_p90", Quantile(handler_ms, 0.9), "ms");
  report->Set("llm.queries", static_cast<double>(gen.queries), "count");
  report->Set("llm.input_tokens", static_cast<double>(gen.input_tokens),
              "count");
  report->Set("llm.output_tokens", static_cast<double>(gen.output_tokens),
              "count");
  report->Set("spec_gen.valid", static_cast<double>(gen.valid), "count");
  report->Set("spec_gen.repaired", static_cast<double>(gen.repaired), "count");
  report->Set("spec_gen.failed", static_cast<double>(gen.failed), "count");
  report->Set("spec_gen.usable_ratio",
              usable / static_cast<double>(gen.handlers), "ratio");
  report->Set("spec_library.build_ms", median("SpecLibrary::Build"), "ms");
  report->Set("trace.overhead_frac",
              Quantile(traced_ms, 0.5) / Quantile(plain_ms, 0.5) - 1.0,
              "ratio");
  if (!tracer.WriteChromeJson(args_.out_dir + "/trace.json")) {
    report->Attempt(false, "cannot write the Chrome trace");
  }
}

}  // namespace

std::unique_ptr<Workload>
MakeSpecgenWorkload(const Args& args)
{
  return std::make_unique<SpecgenWorkload>(args);
}

}  // namespace perfbench
